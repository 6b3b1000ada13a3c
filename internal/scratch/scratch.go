package scratch

import (
	"sync"
	"sync/atomic"
)

// counters aggregates checkout statistics across every arena that shares
// them (all arenas of one Pool, or one standalone arena). All fields are
// atomics so arenas owned by different goroutines report into one set.
type counters struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	// outstanding is bytes currently checked out of arenas (in use by a
	// running analysis); retained is bytes parked in free lists waiting
	// for the next same-shape checkout.
	outstanding atomic.Int64
	retained    atomic.Int64
}

// Arena is one analysis' scratch space: length-keyed free lists of
// float64/int/bool slices. F64/Ints/Bools pop a recycled slice of exactly
// the requested length (hit) or allocate one (miss); Reset returns every
// checkout to the free lists at once. Checkouts come back zeroed, exactly
// like make, so reuse can never change computed bits.
//
// An Arena is NOT safe for concurrent use — it is owned by one worker
// token / one analysis at a time (see the package doc for the ownership
// rules). All methods are nil-safe: a nil Arena allocates fresh slices and
// Reset is a no-op, which is how "no arena" is spelled.
type Arena struct {
	freeF64  map[int][][]float64
	freeInt  map[int][][]int
	freeBool map[int][][]bool
	usedF64  [][]float64
	usedInt  [][]int
	usedBool [][]bool
	// out is this arena's currently-checked-out bytes, mirrored into the
	// shared counters so Reset can subtract exactly what it returns.
	out int64
	c   *counters
}

// NewArena returns a standalone arena with its own counter set. Serving
// layers normally obtain arenas from a Pool instead, so one metrics
// document covers every worker.
func NewArena() *Arena { return newArena(&counters{}) }

func newArena(c *counters) *Arena {
	return &Arena{
		freeF64:  make(map[int][][]float64),
		freeInt:  make(map[int][][]int),
		freeBool: make(map[int][][]bool),
		c:        c,
	}
}

// F64 checks out a zeroed []float64 of length n.
func (a *Arena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	var s []float64
	if l := a.freeF64[n]; len(l) > 0 {
		s = l[len(l)-1]
		a.freeF64[n] = l[:len(l)-1]
		clear(s)
		a.c.hits.Add(1)
		a.c.retained.Add(-int64(n) * 8)
	} else {
		s = make([]float64, n)
		a.c.misses.Add(1)
	}
	a.usedF64 = append(a.usedF64, s)
	a.out += int64(n) * 8
	a.c.outstanding.Add(int64(n) * 8)
	return s
}

// Ints checks out a zeroed []int of length n.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	var s []int
	if l := a.freeInt[n]; len(l) > 0 {
		s = l[len(l)-1]
		a.freeInt[n] = l[:len(l)-1]
		clear(s)
		a.c.hits.Add(1)
		a.c.retained.Add(-int64(n) * 8)
	} else {
		s = make([]int, n)
		a.c.misses.Add(1)
	}
	a.usedInt = append(a.usedInt, s)
	a.out += int64(n) * 8
	a.c.outstanding.Add(int64(n) * 8)
	return s
}

// Bools checks out a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	var s []bool
	if l := a.freeBool[n]; len(l) > 0 {
		s = l[len(l)-1]
		a.freeBool[n] = l[:len(l)-1]
		clear(s)
		a.c.hits.Add(1)
		a.c.retained.Add(-int64(n))
	} else {
		s = make([]bool, n)
		a.c.misses.Add(1)
	}
	a.usedBool = append(a.usedBool, s)
	a.out += int64(n)
	a.c.outstanding.Add(int64(n))
	return s
}

// Reset recycles every checkout back into the free lists. The caller must
// guarantee no checkout is still referenced by live code — see the
// ownership rules in the package doc.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for _, s := range a.usedF64 {
		a.freeF64[len(s)] = append(a.freeF64[len(s)], s)
	}
	for _, s := range a.usedInt {
		a.freeInt[len(s)] = append(a.freeInt[len(s)], s)
	}
	for _, s := range a.usedBool {
		a.freeBool[len(s)] = append(a.freeBool[len(s)], s)
	}
	a.usedF64 = a.usedF64[:0]
	a.usedInt = a.usedInt[:0]
	a.usedBool = a.usedBool[:0]
	a.c.outstanding.Add(-a.out)
	a.c.retained.Add(a.out)
	a.out = 0
}

// Pool hands arenas out alongside worker tokens: Acquire pops a parked
// arena (or builds one), Release resets it and parks it for the next
// same-shape analysis. Unlike an Arena, a Pool IS safe for concurrent use;
// it is the object a serving layer holds next to its token semaphore. A
// nil Pool hands out nil arenas (scratch off) and ignores releases.
type Pool struct {
	mu     sync.Mutex
	free   []*Arena
	arenas atomic.Int64
	c      counters
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// Acquire returns an arena owned by the caller until Release.
func (p *Pool) Acquire() *Arena {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	p.arenas.Add(1)
	return newArena(&p.c)
}

// Release resets the arena and parks it for reuse. Releasing nil (the
// arena a nil pool hands out) is a no-op.
func (p *Pool) Release(a *Arena) {
	if p == nil || a == nil {
		return
	}
	a.Reset()
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Metrics is the pool's observable state: the reuse rate (hits vs misses),
// how many bytes analyses hold right now vs how many sit parked for reuse,
// and how many arenas exist.
type Metrics struct {
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	OutstandingBytes int64  `json:"outstanding_bytes"`
	RetainedBytes    int64  `json:"retained_bytes"`
	Arenas           int64  `json:"arenas"`
}

// Metrics snapshots the pool's counters; nil-safe (all zeros).
func (p *Pool) Metrics() Metrics {
	if p == nil {
		return Metrics{}
	}
	return Metrics{
		Hits:             p.c.hits.Load(),
		Misses:           p.c.misses.Load(),
		OutstandingBytes: p.c.outstanding.Load(),
		RetainedBytes:    p.c.retained.Load(),
		Arenas:           p.arenas.Load(),
	}
}

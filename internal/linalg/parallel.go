// The parallel execution layer every backend shares. ParallelConfig carries
// a worker budget through the analysis stack (core.Options, the service's
// per-request budget, the CLI -workers flags) down to the row-sharded
// mat-vec loops, the Lanczos worker team and the replica engine.
//
// Determinism contract: every helper here produces bit-identical results
// for every worker count, including 1. Element-wise loops (For, Axpy) are
// trivially order-independent; reductions (BlockSum, Dot) accumulate over
// FIXED blocks whose boundaries depend only on the problem size — never on
// the worker count — and combine the partials in block order; scatter
// accumulation (Scatter) uses fixed row shards combined in shard order the
// same way. A Team keeps that rule across many phases: each member owns a
// fixed run of whole blocks, computes those blocks' partials, and every
// member sums all partials in block order after one barrier. Workers only
// change which goroutine computes a partial, never the floating-point
// association. This is what lets the service hand each
// request a load-dependent worker budget while the golden-report corpus
// stays stable to the last bit.
package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"logitdyn/internal/scratch"
)

// DefaultMinRows is the inline threshold: loops shorter than this never
// spawn goroutines (the pre-config parallelFor used the same cutoff).
const DefaultMinRows = 64

// ExtraWorkers is how many worker tokens beyond its own a task with n
// shardable units (profiles, replicas) can use under a budget of workers:
// one per DefaultMinRows units past the first, never more than workers−1
// and never negative. Token pools size their non-blocking borrows with it,
// so a task too small to feed extra workers borrows nothing.
func ExtraWorkers(n, workers int) int {
	return max(0, min(workers-1, n/DefaultMinRows-1))
}

// ReduceBlock is the fixed block length of deterministic reductions
// (BlockSum, Dot). Serial and parallel runs accumulate the same per-block
// partials and combine them in the same order; vectors at or below this
// length reduce in one block, exactly matching a plain serial loop.
// Callers that keep per-block side state (e.g. a per-block argmax) may
// index it by lo/ReduceBlock.
const ReduceBlock = 4096

// scatterShardRows is the fixed shard height of deterministic scatter
// accumulation, and scatterMaxShards caps the number of column-sized
// partial buffers a transpose apply may allocate.
const (
	scatterShardRows = 8192
	scatterMaxShards = 32
)

// ParallelConfig is the execution value threaded through the analysis
// stack: the worker budget and the scratch arena travel together. The zero
// value selects GOMAXPROCS workers with the default inline threshold and
// no arena, preserving the behavior code had before the config existed.
type ParallelConfig struct {
	// Workers bounds how many goroutines a data-parallel loop may use;
	// 0 means GOMAXPROCS, 1 forces inline execution.
	Workers int
	// MinRows is the minimum rows each worker must receive before a loop
	// splits; 0 means DefaultMinRows. Loops shorter than MinRows run inline.
	MinRows int
	// Arena, when set, supplies the analysis' non-escaping working memory
	// (CSR arrays, potential tables, ζ-scan temporaries, the Lanczos
	// workspace); nil allocates fresh. An arena is owned by one analysis
	// at a time (see internal/scratch), so a config carrying one must not
	// be handed to two concurrent analyses. Like Workers, it never changes
	// a computed bit: checkouts come back zeroed, exactly like make.
	Arena *scratch.Arena
}

// Serial is the explicit one-worker config: everything runs inline.
var Serial = ParallelConfig{Workers: 1}

// Normalized fills in the defaults so equivalent spellings compare equal.
func (c ParallelConfig) Normalized() ParallelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinRows <= 0 {
		c.MinRows = DefaultMinRows
	}
	return c
}

// workersFor returns how many goroutines to use for an n-element loop:
// never more than the budget, and never so many that a worker gets fewer
// than MinRows elements.
func (c ParallelConfig) workersFor(n int) int {
	c = c.Normalized()
	w := c.Workers
	if byRows := n / c.MinRows; w > byRows {
		w = byRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For splits [0, n) into contiguous chunks across the configured workers.
// Each index must be written by exactly one chunk (element-wise
// independence); under that contract the result is bit-identical for every
// worker count. Small n runs inline.
func (c ParallelConfig) For(n int, body func(lo, hi int)) {
	workers := c.workersFor(n)
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BlockSum computes Σ block(lo, hi) over fixed blocks of ReduceBlock
// elements, combining the partials in block order. Because the block
// boundaries depend only on n, the sum is bit-identical for every worker
// count; for n <= ReduceBlock it degenerates to one serial block.
func (c ParallelConfig) BlockSum(n int, block func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	if blocks == 1 || c.workersFor(n) <= 1 {
		s := 0.0
		for b := 0; b < blocks; b++ {
			lo := b * ReduceBlock
			hi := lo + ReduceBlock
			if hi > n {
				hi = n
			}
			s += block(lo, hi)
		}
		return s
	}
	partials := make([]float64, blocks)
	var next atomic.Int64
	workers := c.workersFor(n)
	if workers > blocks {
		workers = blocks
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo := b * ReduceBlock
				hi := lo + ReduceBlock
				if hi > n {
					hi = n
				}
				partials[b] = block(lo, hi)
			}
		}()
	}
	wg.Wait()
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}

// Dot is the deterministic parallel inner product: per-block partial dots
// combined in block order. For vectors at or below ReduceBlock it returns
// exactly what the serial Dot returns.
//
// The serial path (one block, or a one-worker budget) is written out
// inline rather than through BlockSum: the callback would escape into
// BlockSum's goroutine branch and cost one closure allocation per call,
// which the Lanczos re-orthogonalization pays tens of thousands of times
// per analysis. The inline loop accumulates over the same fixed blocks in
// the same order, so the bits are identical.
func (c ParallelConfig) Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: ParallelConfig.Dot length mismatch")
	}
	n := len(a)
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	if blocks <= 1 || c.workersFor(n) <= 1 {
		s := 0.0
		for b0 := 0; b0 < n; b0 += ReduceBlock {
			hi := b0 + ReduceBlock
			if hi > n {
				hi = n
			}
			p := 0.0
			for i := b0; i < hi; i++ {
				p += a[i] * b[i]
			}
			s += p
		}
		return s
	}
	return c.BlockSum(n, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

// Axpy computes y += alpha*x across the configured workers. Element-wise
// independent, so any chunking produces identical bits. Like Dot, the
// serial path runs inline so hot callers pay no closure allocation.
func (c ParallelConfig) Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: ParallelConfig.Axpy length mismatch")
	}
	if c.workersFor(len(x)) <= 1 {
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	c.For(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// Team is a worker team that stays alive for a computation made of many
// short data-parallel phases over one n-length index range, such as one
// Lanczos call. Each member owns a fixed run of whole ReduceBlock blocks
// for the team's whole life. So its strip of a working vector stays in its
// core's cache from phase to phase, and no goroutine is spawned per phase.
// A team reduction (TeamMember.Dot, AxpyDot, Orthogonalize) writes each
// block's partial, waits at one barrier, and then every member sums all
// partials in block order. That is exactly Dot's fixed-block reduction,
// and the element-wise updates are Axpy's, so a team of any size computes
// the same bits as Dot and Axpy.
//
// Inside a job the barrier spins briefly and then yields with
// runtime.Gosched; it parks only after a long wait, when the host has
// fewer free cores than members. Between jobs the members park, so a
// caller's own parallel work (a mat-vec on its own budget) gets the cores.
// A team is driven by one goroutine at a time, through Run.
type Team struct {
	members []TeamMember
	// partials holds one partial per block. Two buffers alternate, so a
	// member that is still summing one reduction never sees the next
	// reduction's partials overwrite it.
	partials [2][]float64
	bar      spinBarrier
	job      func(*TeamMember)
	exit     sync.WaitGroup
}

// TeamMember is one member's view of a Team job: its strip and its place
// in the job's sequence of reductions. The padding keeps members' round
// counters off each other's cache lines.
type TeamMember struct {
	t      *Team
	wake   chan struct{} // a job (or Close) is ready; nil for member 0
	lo, hi int           // element strip [lo, hi)
	b0, b1 int           // block run [b0, b1)
	round  int           // reductions so far in the current job
	_      [64]byte
}

// NewTeam starts a team over an n-length range with min(budget,
// GOMAXPROCS, blocks) members, where blocks = ⌈n/ReduceBlock⌉. Member 0 is
// the goroutine that calls Run; the others are spawned here and live until
// Close. A one-member team runs every job inline.
func (c ParallelConfig) NewTeam(n int) *Team {
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	size := max(1, min(c.Normalized().Workers, runtime.GOMAXPROCS(0), blocks))
	t := &Team{members: make([]TeamMember, size)}
	t.partials[0] = make([]float64, blocks)
	t.partials[1] = make([]float64, blocks)
	t.bar.init(size)
	for m := range t.members {
		b0, b1 := m*blocks/size, (m+1)*blocks/size
		t.members[m] = TeamMember{t: t, lo: min(b0*ReduceBlock, n), hi: min(b1*ReduceBlock, n), b0: b0, b1: b1}
	}
	t.exit.Add(size - 1)
	for m := 1; m < size; m++ {
		t.members[m].wake = make(chan struct{}, 1)
		go t.work(&t.members[m])
	}
	return t
}

// work is the loop of every member but the first: park until a job is
// ready, run it, meet the others at the closing barrier.
func (t *Team) work(m *TeamMember) {
	defer t.exit.Done()
	for range m.wake {
		if t.bar.stopped.Load() {
			return
		}
		m.round = 0
		t.job(m)
		t.bar.wait()
	}
}

// Run runs job once on every member and returns when all have finished.
// Members may only write their own strip of a shared vector; everything
// job reads from other strips must come through a team reduction.
func (t *Team) Run(job func(*TeamMember)) {
	lead := &t.members[0]
	lead.round = 0
	if len(t.members) == 1 {
		job(lead)
		return
	}
	t.job = job
	for m := range t.members[1:] {
		t.members[1+m].wake <- struct{}{}
	}
	job(lead)
	t.bar.wait()
}

// Close stops the team's goroutines and waits for them to exit.
func (t *Team) Close() {
	t.bar.stop()
	for m := range t.members[1:] {
		close(t.members[1+m].wake)
	}
	t.exit.Wait()
}

// Range returns the member's strip [lo, hi), a run of whole blocks (the
// last block of the range may be short).
func (m *TeamMember) Range() (lo, hi int) { return m.lo, m.hi }

// Leader reports whether m is the member that runs on Run's caller.
func (m *TeamMember) Leader() bool { return m == &m.t.members[0] }

// Dot returns a·b over the whole range, bit-equal to ParallelConfig.Dot.
// Every member must call it, in the same order as the job's other
// reductions.
func (m *TeamMember) Dot(a, b []float64) float64 {
	p := m.partials()
	dotBlocks(a, b, m.b0, m.b1, p)
	return m.reduce(p)
}

// AxpyDot computes y += alpha*x on the member's strip, then returns y·z
// over the whole range: Axpy followed by Dot, with one barrier.
func (m *TeamMember) AxpyDot(alpha float64, x, y, z []float64) float64 {
	p := m.partials()
	axpyDotBlocks(alpha, x, y, z, m.b0, m.b1, p)
	return m.reduce(p)
}

// Orthogonalize runs the modified Gram–Schmidt sweep w ← w − (w·b)·b for
// each b of against in order, bit-equal to a loop of
// par.Axpy(−par.Dot(w, b), b, w). The axpy for one vector is fused with
// the block partials of the dot with the next, so the sweep costs one
// barrier per vector and w's strip never leaves the member's cache.
func (m *TeamMember) Orthogonalize(w []float64, against [][]float64) {
	if len(against) == 0 {
		return
	}
	c := m.Dot(w, against[0])
	for j := 1; j < len(against); j++ {
		c = m.AxpyDot(-c, against[j-1], w, against[j])
	}
	x := against[len(against)-1]
	for i := m.lo; i < m.hi; i++ {
		w[i] += -c * x[i]
	}
}

// partials returns the buffer of the member's next reduction.
func (m *TeamMember) partials() []float64 { return m.t.partials[m.round&1] }

// reduce waits for every member's partials in p and sums them in block
// order.
func (m *TeamMember) reduce(p []float64) float64 {
	m.round++
	if len(m.t.members) > 1 {
		m.t.bar.wait()
	}
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// A barrier waiter polls spinPolls times, then yields between polls up to
// yieldPolls times, then parks.
const (
	spinPolls  = 64
	yieldPolls = 1024
)

// spinBarrier is a reusable barrier for a fixed number of goroutines.
type spinBarrier struct {
	size    int32
	arrived atomic.Int32
	gen     atomic.Uint32
	parked  atomic.Int32
	stopped atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond
}

func (b *spinBarrier) init(size int) {
	b.size = int32(size)
	b.cond.L = &b.mu
}

// wait returns when size goroutines have called it. A waiter whose team is
// stopped exits its goroutine instead, so a panicking leader cannot strand
// the others.
func (b *spinBarrier) wait() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.size {
		b.arrived.Store(0)
		b.gen.Add(1)
		if b.parked.Load() > 0 {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		return
	}
	for poll := 0; b.gen.Load() == gen; poll++ {
		switch {
		case b.stopped.Load():
			runtime.Goexit()
		case poll < spinPolls:
		case poll < spinPolls+yieldPolls:
			runtime.Gosched()
		default:
			b.mu.Lock()
			b.parked.Add(1)
			for b.gen.Load() == gen && !b.stopped.Load() {
				b.cond.Wait()
			}
			b.parked.Add(-1)
			b.mu.Unlock()
		}
	}
}

// stop makes every present and future waiter exit its goroutine.
func (b *spinBarrier) stop() {
	b.stopped.Store(true)
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// dotBlocks writes out[b] = Σ a[i]·z[i] over each block b of [b0, b1),
// every block accumulated in index order from zero, exactly like Dot's
// per-block partials.
func dotBlocks(a, z []float64, b0, b1 int, out []float64) {
	if len(a) != len(z) {
		panic("linalg: TeamMember.Dot length mismatch")
	}
	for b := b0; b < b1; b++ {
		lo, hi := b*ReduceBlock, min((b+1)*ReduceBlock, len(a))
		p := 0.0
		for i := lo; i < hi; i++ {
			p += a[i] * z[i]
		}
		out[b] = p
	}
}

// axpyDotBlocks is dotBlocks(y, z) preceded, element by element, by
// y[i] += alpha*x[i]: each block's partial reads the updated y. It is the
// sweep's hot kernel, so full blocks go four at a time: four independent
// accumulators hide the add latency without changing any block's sum.
func axpyDotBlocks(alpha float64, x, y, z []float64, b0, b1 int, out []float64) {
	if len(x) != len(y) || len(y) != len(z) {
		panic("linalg: TeamMember.AxpyDot length mismatch")
	}
	b := b0
	for ; b+4 <= b1 && (b+4)*ReduceBlock <= len(y); b += 4 {
		o := b * ReduceBlock
		x0, x1, x2, x3 := blockAt(x, o), blockAt(x, o+ReduceBlock), blockAt(x, o+2*ReduceBlock), blockAt(x, o+3*ReduceBlock)
		y0, y1, y2, y3 := blockAt(y, o), blockAt(y, o+ReduceBlock), blockAt(y, o+2*ReduceBlock), blockAt(y, o+3*ReduceBlock)
		z0, z1, z2, z3 := blockAt(z, o), blockAt(z, o+ReduceBlock), blockAt(z, o+2*ReduceBlock), blockAt(z, o+3*ReduceBlock)
		var p0, p1, p2, p3 float64
		for i := 0; i < ReduceBlock; i++ {
			y0[i] += alpha * x0[i]
			p0 += y0[i] * z0[i]
			y1[i] += alpha * x1[i]
			p1 += y1[i] * z1[i]
			y2[i] += alpha * x2[i]
			p2 += y2[i] * z2[i]
			y3[i] += alpha * x3[i]
			p3 += y3[i] * z3[i]
		}
		out[b], out[b+1], out[b+2], out[b+3] = p0, p1, p2, p3
	}
	for ; b < b1; b++ {
		lo, hi := b*ReduceBlock, min((b+1)*ReduceBlock, len(y))
		p := 0.0
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
			p += y[i] * z[i]
		}
		out[b] = p
	}
}

// blockAt returns the full block of v that starts at o as an array
// pointer, so the kernels' constant-length loops carry no bounds checks.
func blockAt(v []float64, o int) *[ReduceBlock]float64 {
	return (*[ReduceBlock]float64)(v[o : o+ReduceBlock])
}

// scatterShards returns the fixed shard count for a rows-tall scatter:
// ceil(rows/scatterShardRows) capped at scatterMaxShards. It depends only
// on rows, never on the worker budget — that is what keeps transpose
// applies bit-identical across worker counts.
func scatterShards(rows int) int {
	shards := (rows + scatterShardRows - 1) / scatterShardRows
	if shards > scatterMaxShards {
		shards = scatterMaxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// Scatter runs scatter-accumulation over fixed row shards: body adds row
// range [lo, hi)'s contributions into acc (len cols, pre-zeroed). With one
// shard it accumulates directly into dst; otherwise each shard owns a
// partial buffer and dst[j] = Σ_shards partial[s][j] is combined in shard
// order, so the result is bit-identical for every worker count. dst is
// zeroed first either way.
func (c ParallelConfig) Scatter(rows, cols int, dst []float64, body func(lo, hi int, acc []float64)) {
	if len(dst) != cols {
		panic("linalg: ParallelConfig.Scatter dst size mismatch")
	}
	Fill(dst, 0)
	if rows <= 0 {
		return
	}
	shards := scatterShards(rows)
	if shards == 1 {
		body(0, rows, dst)
		return
	}
	chunk := (rows + shards - 1) / shards
	if c.workersFor(rows) <= 1 {
		// Serial path: same per-shard partials combined in the same shard
		// order — identical bits to the parallel path — but one reusable
		// buffer instead of one allocation per shard.
		acc := make([]float64, cols)
		for s := 0; s < shards; s++ {
			lo := s * chunk
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			if lo >= hi {
				continue
			}
			Fill(acc, 0)
			body(lo, hi, acc)
			for j, v := range acc {
				dst[j] += v
			}
		}
		return
	}
	partials := make([][]float64, shards)
	var next atomic.Int64
	workers := c.workersFor(rows)
	if workers > shards {
		workers = shards
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				lo := s * chunk
				hi := lo + chunk
				if hi > rows {
					hi = rows
				}
				acc := make([]float64, cols)
				if lo < hi {
					body(lo, hi, acc)
				}
				partials[s] = acc
			}
		}()
	}
	wg.Wait()
	// Combine in shard order; the column loop is element-wise independent,
	// so it parallelizes safely too.
	c.For(cols, func(lo, hi int) {
		for _, acc := range partials {
			for j := lo; j < hi; j++ {
				dst[j] += acc[j]
			}
		}
	})
}

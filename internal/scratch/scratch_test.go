package scratch

import (
	"sync"
	"testing"
)

// A recycled checkout must come back zeroed (the make contract) and reuse
// the same backing array — that is the entire point of the arena.
func TestArenaRecyclesZeroed(t *testing.T) {
	a := NewArena()
	f := a.F64(64)
	i := a.Ints(32)
	bo := a.Bools(16)
	for k := range f {
		f[k] = float64(k) + 0.5
	}
	for k := range i {
		i[k] = k + 1
	}
	for k := range bo {
		bo[k] = true
	}
	a.Reset()
	f2, i2, b2 := a.F64(64), a.Ints(32), a.Bools(16)
	if &f2[0] != &f[0] || &i2[0] != &i[0] || &b2[0] != &bo[0] {
		t.Fatal("same-length checkout after Reset did not recycle the backing array")
	}
	for k := range f2 {
		if f2[k] != 0 {
			t.Fatalf("recycled f64[%d] = %g, want 0", k, f2[k])
		}
	}
	for k := range i2 {
		if i2[k] != 0 {
			t.Fatalf("recycled int[%d] = %d, want 0", k, i2[k])
		}
	}
	for k := range b2 {
		if b2[k] {
			t.Fatalf("recycled bool[%d] = true, want false", k)
		}
	}
	if m := poolless(a); m.Hits != 3 || m.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", m.Hits, m.Misses)
	}
}

// poolless snapshots a standalone arena's counter set for assertions.
func poolless(a *Arena) Metrics {
	return Metrics{
		Hits:             a.c.hits.Load(),
		Misses:           a.c.misses.Load(),
		OutstandingBytes: a.c.outstanding.Load(),
		RetainedBytes:    a.c.retained.Load(),
	}
}

// Two live checkouts of the same length must never alias: aliasing inside
// one analysis would corrupt results, which is why checkouts only return
// to the free lists at Reset.
func TestArenaLiveCheckoutsNeverAlias(t *testing.T) {
	a := NewArena()
	x, y := a.F64(8), a.F64(8)
	if &x[0] == &y[0] {
		t.Fatal("two live checkouts share a backing array")
	}
}

// The byte accounting must round-trip exactly: checkout moves bytes to
// outstanding, Reset moves them to retained, a warm checkout moves them
// back out.
func TestArenaByteAccounting(t *testing.T) {
	a := NewArena()
	a.F64(100) // 800 B
	a.Ints(10) // 80 B
	a.Bools(5) // 5 B
	if m := poolless(a); m.OutstandingBytes != 885 || m.RetainedBytes != 0 {
		t.Fatalf("after checkout: outstanding=%d retained=%d, want 885/0", m.OutstandingBytes, m.RetainedBytes)
	}
	a.Reset()
	if m := poolless(a); m.OutstandingBytes != 0 || m.RetainedBytes != 885 {
		t.Fatalf("after reset: outstanding=%d retained=%d, want 0/885", m.OutstandingBytes, m.RetainedBytes)
	}
	a.F64(100)
	if m := poolless(a); m.OutstandingBytes != 800 || m.RetainedBytes != 85 {
		t.Fatalf("after warm checkout: outstanding=%d retained=%d, want 800/85", m.OutstandingBytes, m.RetainedBytes)
	}
}

// Nil arenas and nil pools are the spelled-out "no arena": every method
// must behave exactly like fresh allocation.
func TestNilSafety(t *testing.T) {
	var a *Arena
	f := a.F64(4)
	if len(f) != 4 || f[0] != 0 {
		t.Fatalf("nil arena F64 = %v", f)
	}
	if got := a.Ints(3); len(got) != 3 {
		t.Fatalf("nil arena Ints = %v", got)
	}
	if got := a.Bools(2); len(got) != 2 {
		t.Fatalf("nil arena Bools = %v", got)
	}
	a.Reset() // must not panic

	var p *Pool
	if ar := p.Acquire(); ar != nil {
		t.Fatalf("nil pool handed out %v", ar)
	}
	p.Release(nil) // must not panic
	if m := p.Metrics(); m != (Metrics{}) {
		t.Fatalf("nil pool metrics = %+v", m)
	}
}

// A released arena parks for the next Acquire, so a serial acquire/release
// sequence reuses one arena and its free lists stay warm across checkouts.
func TestPoolParksReleasedArenas(t *testing.T) {
	p := NewPool()
	a1 := p.Acquire()
	a1.F64(128)
	p.Release(a1)
	a2 := p.Acquire()
	if a1 != a2 {
		t.Fatal("pool built a second arena while one was parked")
	}
	s := a2.F64(128)
	_ = s
	m := p.Metrics()
	if m.Arenas != 1 {
		t.Fatalf("arenas = %d, want 1", m.Arenas)
	}
	if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1 (warm reuse across release)", m.Hits, m.Misses)
	}
	if m.OutstandingBytes != 1024 {
		t.Fatalf("outstanding = %d, want 1024", m.OutstandingBytes)
	}
}

// The -race canary for concurrent checkout: many goroutines acquire
// arenas, check out and fill slices of clashing lengths, and release —
// the shape of mixed analyze/sweep load against one service pool. The
// shared counters are atomics and the park list is mutex-guarded; any
// cross-arena sharing of a live slice is a bug this test makes visible
// (both to -race and to the data check below).
func TestPoolConcurrentCheckout(t *testing.T) {
	p := NewPool()
	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := p.Acquire()
				f := a.F64(256)
				i := a.Ints(64)
				for k := range f {
					f[k] = float64(id)
				}
				for k := range i {
					i[k] = id
				}
				for k := range f {
					if f[k] != float64(id) {
						t.Errorf("worker %d: slice mutated concurrently", id)
						break
					}
				}
				p.Release(a)
			}
		}(w)
	}
	wg.Wait()
	m := p.Metrics()
	if m.OutstandingBytes != 0 {
		t.Fatalf("outstanding %d bytes after all releases", m.OutstandingBytes)
	}
	if m.Hits+m.Misses != workers*rounds*2 {
		t.Fatalf("hits+misses = %d, want %d checkouts", m.Hits+m.Misses, workers*rounds*2)
	}
	if m.Arenas < 1 || m.Arenas > workers {
		t.Fatalf("arenas = %d, want within [1, %d]", m.Arenas, workers)
	}
}

package sim

import (
	"sync/atomic"
	"testing"

	"logitdyn/internal/rng"
)

func TestMapPreservesOrder(t *testing.T) {
	params := []int{10, 20, 30, 40, 50}
	out := Map(params, 1, 4, func(i int, p int, r *rng.RNG) int {
		return p + i
	})
	want := []int{10, 21, 32, 43, 54}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	// The RNG stream handed to each task must not depend on scheduling.
	params := make([]int, 64)
	run := func(workers int) []uint64 {
		return Map(params, 42, workers, func(i int, _ int, r *rng.RNG) uint64 {
			return r.Uint64()
		})
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: task %d stream differs", w, i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out := Map([]int{}, 1, 4, func(i, p int, r *rng.RNG) int { return 0 })
	if len(out) != 0 {
		t.Fatal("empty input must give empty output")
	}
}

func TestMapRunsAllTasksOnce(t *testing.T) {
	var count int64
	n := 100
	Map(make([]struct{}, n), 7, 8, func(i int, _ struct{}, r *rng.RNG) struct{} {
		atomic.AddInt64(&count, 1)
		return struct{}{}
	})
	if count != int64(n) {
		t.Fatalf("ran %d tasks, want %d", count, n)
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	out := Map([]int{1, 2, 3}, 1, 0, func(i, p int, r *rng.RNG) int { return p * 2 })
	if out[0] != 2 || out[1] != 4 || out[2] != 6 {
		t.Fatalf("out = %v", out)
	}
}

func TestRepeat(t *testing.T) {
	out := Repeat(10, 3, 4, func(trial int, r *rng.RNG) int { return trial })
	for i, v := range out {
		if v != i {
			t.Fatalf("trial order broken: %v", out)
		}
	}
	// Determinism of streams.
	a := Repeat(5, 9, 2, func(_ int, r *rng.RNG) uint64 { return r.Uint64() })
	b := Repeat(5, 9, 5, func(_ int, r *rng.RNG) uint64 { return r.Uint64() })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Repeat streams must be deterministic")
		}
	}
}

func TestSumCountsWorkerInvariant(t *testing.T) {
	// Replica r bumps a few slots chosen by its own stream; the totals must
	// be identical whatever the worker count, including 1.
	const replicas, n = 200, 97
	run := func(workers int) []int64 {
		return SumCounts(replicas, 99, workers, n, func(replica int, r *rng.RNG, counts []int64) {
			for k := 0; k < 50; k++ {
				counts[r.Intn(n)]++
			}
		})
	}
	want := run(1)
	var sum int64
	for _, v := range want {
		sum += v
	}
	if sum != replicas*50 {
		t.Fatalf("serial total %d, want %d", sum, replicas*50)
	}
	for _, w := range []int{2, 4, 8, 16} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: counts[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestSumCountsEmpty(t *testing.T) {
	got := SumCounts(0, 1, 4, 5, func(int, *rng.RNG, []int64) { t.Fatal("must not run") })
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
}

package logitdyn_test

import (
	"context"
	"os"
	"testing"

	"logitdyn/internal/spec"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

// Cold-vs-warm-store guardrail for the sweep engine: the same 16-point
// grid (2 families × 2 sizes × 4 β) run against an empty store pays for
// every analysis, while a warm store must serve every point from disk
// with zero re-analyses. CI runs both at -benchtime 1x so a regression in
// either path (or in the resume contract they implement) fails the build;
// measured numbers are recorded in BENCH_sweep.json.

func sweepBenchGrid() *sweep.Grid {
	return &sweep.Grid{
		Name: "bench",
		Axes: sweep.Axes{
			Game: []string{"doublewell", "asymwell"},
			N:    []int{6, 8},
			Beta: &sweep.Schedule{From: 0.5, To: 2, Steps: 4},
		},
		Base: spec.Spec{C: 2, Delta1: 1, Depth: 3, Shallow: 1},
	}
}

func runSweepBench(b *testing.B, st *store.Store, wantAnalyzed int) sweep.RunStats {
	b.Helper()
	r := &sweep.Runner{Eval: sweep.DirectEvalScratch(st, nil, nil), Workers: 4}
	_, stats, err := r.Run(context.Background(), sweepBenchGrid())
	if err != nil {
		b.Fatal(err)
	}
	if stats.Failed != 0 {
		b.Fatalf("%d points failed", stats.Failed)
	}
	if wantAnalyzed >= 0 && stats.Analyzed != wantAnalyzed {
		b.Fatalf("analyzed %d points, want %d (stats %+v)", stats.Analyzed, wantAnalyzed, stats)
	}
	return stats
}

func BenchmarkSweepColdStore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "cold")
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runSweepBench(b, st, 16)
	}
}

func BenchmarkSweepWarmStore(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm every grid point once, outside the timer.
	runSweepBench(b, st, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := runSweepBench(b, st, 0)
		if stats.StoreHits != 16 {
			b.Fatalf("warm run store hits = %d, want 16", stats.StoreHits)
		}
	}
}

package logitdyn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"logitdyn/internal/bench"
	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/scratch"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/spectral"
	"logitdyn/internal/sweep"
)

// One benchmark per reproduced table/figure: each runs the registered
// experiment in quick mode, so `go test -bench=.` regenerates every result
// end to end and reports the cost of doing so.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Format(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1EigenvaluesNonnegative(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2RelaxationBetaZero(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3GlobalUpperBound(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4LowerBoundDoubleWell(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5SmallBeta(b *testing.B)              { benchExperiment(b, "E5") }
func BenchmarkE6ZetaBounds(b *testing.B)             { benchExperiment(b, "E6") }
func BenchmarkE7DominantPlateau(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8DominantScaling(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9CutwidthBound(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Clique(b *testing.B)                { benchExperiment(b, "E10") }
func BenchmarkE11Ring(b *testing.B)                  { benchExperiment(b, "E11") }
func BenchmarkE12RiskDominant(b *testing.B)          { benchExperiment(b, "E12") }

// Extensions beyond the paper (marked as such in their titles).

func BenchmarkE13LanczosLargeRing(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14CrossValidation(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15WelfareTradeoff(b *testing.B)  { benchExperiment(b, "E15") }

// Micro-benchmarks for the pipeline stages underlying the experiments.

func BenchmarkPipelineTransitionMatrix(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(10), base)
	d, _ := logit.New(g, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.TransitionCSRPar(linalg.ParallelConfig{})
	}
}

func BenchmarkPipelineSpectralDecompose(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	d, _ := logit.New(g, 1)
	pi, _ := d.GibbsPar(linalg.Serial)
	p := d.TransitionDensePar(linalg.ParallelConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Decompose(p, pi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineMixingTimeQuery(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	d, _ := logit.New(g, 1.5)
	pi, _ := d.GibbsPar(linalg.Serial)
	dec, err := spectral.Decompose(d.TransitionDensePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.MixingTime(0.25, 1<<62); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFullAnalyze(b *testing.B) {
	dw, _ := game.NewDoubleWell(8, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := core.NewAnalyzer(dw, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Analyze(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving-layer benchmarks: the baseline for every future scaling PR.
// Cold-analyze pays a full eigendecomposition per request (every key
// distinct), cache-hit serves a hot key from the LRU, and batch-sweep fans
// a β-grid out across the worker pool in one request.

func servicePost(b *testing.B, srv *httptest.Server, path string, body any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d", path, resp.StatusCode)
	}
}

func serviceBenchSpec() *spec.Spec {
	return &spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}
}

func BenchmarkServiceColdAnalyze(b *testing.B) {
	srv := httptest.NewServer(service.New(service.Config{CacheSize: 4 * 1024}).Handler())
	defer srv.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A distinct β per iteration defeats the cache, so every request
		// pays the full analysis.
		servicePost(b, srv, "/v1/analyze", service.AnalyzeRequest{
			Spec: serviceBenchSpec(),
			Beta: 1 + float64(i)*1e-9,
		})
	}
}

func BenchmarkServiceCacheHit(b *testing.B) {
	srv := httptest.NewServer(service.New(service.Config{}).Handler())
	defer srv.Close()
	req := service.AnalyzeRequest{Spec: serviceBenchSpec(), Beta: 1}
	servicePost(b, srv, "/v1/analyze", req) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servicePost(b, srv, "/v1/analyze", req)
	}
}

func BenchmarkServiceBatchSweep(b *testing.B) {
	srv := httptest.NewServer(service.New(service.Config{CacheSize: 4 * 1024}).Handler())
	defer srv.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betas := make([]float64, 8)
		for j := range betas {
			// Distinct per iteration so the sweep is always cold work.
			betas[j] = 0.25 + 0.25*float64(j) + float64(i)*1e-9
		}
		servicePost(b, srv, "/v1/analyze/batch", service.BatchRequest{
			Spec:  serviceBenchSpec(),
			Betas: betas,
		})
	}
}

// Example-style smoke test: the registry formats all quick tables without
// error (kept as a test so plain `go test ./...` at the root exercises the
// harness end to end).
func TestRegenerateAllQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds")
	}
	for _, e := range bench.All() {
		tab, err := e.Run(bench.Config{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := tab.Format(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Printf("regenerated all %d quick tables\n", len(bench.All()))
}

// Operator-backend benchmarks: the same transition mat-vec through the
// dense, CSR sparse and matrix-free backends at growing profile-space
// sizes. Dense is skipped above the exact-analysis cap, where its O(N²)
// table stops fitting — which is exactly the regime the sparse backends
// exist for.

func benchRingDynamics(b *testing.B, players int) *logit.Dynamics {
	b.Helper()
	g, err := game.NewIsing(graph.Ring(players), 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := logit.New(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchMatVec(b *testing.B, op linalg.Operator) {
	rows, cols := op.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1 / float64(cols)
	}
	dst := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.MatVec(dst, x)
	}
}

func BenchmarkOperatorMatVec(b *testing.B) {
	for _, players := range []int{10, 12, 14} {
		d := benchRingDynamics(b, players)
		size := d.Space().Size()
		if size <= 4096 {
			b.Run(fmt.Sprintf("dense/N=%d", size), func(b *testing.B) {
				benchMatVec(b, d.TransitionDensePar(linalg.ParallelConfig{}))
			})
		}
		b.Run(fmt.Sprintf("sparse/N=%d", size), func(b *testing.B) {
			benchMatVec(b, d.TransitionCSRPar(linalg.ParallelConfig{}))
		})
		b.Run(fmt.Sprintf("matfree/N=%d", size), func(b *testing.B) {
			benchMatVec(b, d.MatFree())
		})
	}
}

// BenchmarkRelaxationBackends measures the full λ*/t_rel pipeline (operator
// construction + Lanczos) per backend on a chain above the dense cap.
func BenchmarkRelaxationBackends(b *testing.B) {
	d := benchRingDynamics(b, 13) // 8192 profiles
	for _, backend := range []logit.Backend{logit.BackendSparse, logit.BackendMatFree} {
		b.Run(string(backend), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mixing.RelaxationSandwichPar(d, backend, 0.25, nil, linalg.ParallelConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceColdSparseAnalyze is the cache-cold serving cost of a
// game above the old dense cap (8192 profiles): every request pays a full
// sparse Lanczos analysis. Compare with BenchmarkServiceColdAnalyze, the
// dense-path equivalent at 64 profiles.
func BenchmarkServiceColdSparseAnalyze(b *testing.B) {
	srv := httptest.NewServer(service.New(service.Config{CacheSize: 4 * 1024}).Handler())
	defer srv.Close()
	req := service.AnalyzeRequest{
		Spec: &spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A distinct β per iteration defeats the cache.
		req.Beta = 1 + float64(i)*1e-9
		servicePost(b, srv, "/v1/analyze", req)
	}
}

// Serial-vs-parallel guardrail benchmarks. These are the committed evidence
// for the parallel layer: the same 65,536-profile sparse analysis and the
// same 10,000-replica simulation at worker budgets 1 and 4. On a 4+-core
// machine the workers=4 runs must be ≥2× faster; on any machine the two
// budgets produce bit-identical outputs (the determinism tests pin that).
// CI runs them with -benchtime=1x as a build/run guardrail and the measured
// numbers live in BENCH_parallel.json.

var parallelWorkerBudgets = []int{1, 4}

// assertParallelSpeedup enforces the ≥2×-at-4-workers contract after a
// BenchmarkParallel* run measured both budgets. On hosts that cannot
// physically express the speedup (fewer than 4 CPUs) it auto-skips with an
// explicit log line, so a CI run on a small container shows WHY the
// guardrail did not assert instead of silently passing.
func assertParallelSpeedup(b *testing.B, perOp map[int]time.Duration) {
	b.Helper()
	t1, t4 := perOp[1], perOp[4]
	if t1 == 0 || t4 == 0 {
		return // a -bench filter ran only one budget; nothing to compare
	}
	ratio := float64(t1) / float64(t4)
	if n := runtime.NumCPU(); n < 4 {
		b.Logf("SKIP parallel speedup guardrail: NumCPU=%d < 4, workers=4 cannot beat workers=1 on this host (measured %.2fx)", n, ratio)
		return
	}
	if ratio < 2 {
		b.Fatalf("parallel speedup guardrail: workers=4 ran %.2fx faster than workers=1, want >= 2x", ratio)
	}
}

func parallelBenchGame(b *testing.B) game.Game {
	b.Helper()
	// 2^16 = 65,536 profiles, the acceptance workload of the sparse route.
	g, err := (spec.Spec{Game: "doublewell", N: 16, C: 5, Delta1: 1}).Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkParallelSparseAnalyze65536(b *testing.B) {
	g := parallelBenchGame(b)
	perOp := make(map[int]time.Duration)
	for _, w := range parallelWorkerBudgets {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep, err := core.AnalyzeGame(g, 1, core.Options{
					Backend:  "sparse",
					Parallel: linalg.ParallelConfig{Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.NumProfiles != 1<<16 {
					b.Fatalf("num profiles %d", rep.NumProfiles)
				}
			}
			perOp[w] = time.Since(start) / time.Duration(b.N)
		})
	}
	assertParallelSpeedup(b, perOp)
}

func BenchmarkParallelSimulate10kReplicas(b *testing.B) {
	// 10,000 replicas × 1,000 steps on a 1,024-profile ring: the replica
	// engine's scaling workload (each replica is an independent stream).
	g, err := game.NewIsing(graph.Ring(10), 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	start := make([]int, 10)
	perOp := make(map[int]time.Duration)
	for _, w := range parallelWorkerBudgets {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			begin := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := a.SimulateReplicas(start, 1_000, 10_000, 7, w); err != nil {
					b.Fatal(err)
				}
			}
			perOp[w] = time.Since(begin) / time.Duration(b.N)
		})
	}
	assertParallelSpeedup(b, perOp)
}

// BenchmarkParallelServiceAnalyze65536 is the end-to-end serving variant:
// the worker-token budget is the service Config knob, so workers=1 runs the
// analysis serial and workers=4 lets the lone request borrow three extra
// tokens.
func BenchmarkParallelServiceAnalyze65536(b *testing.B) {
	perOp := make(map[int]time.Duration)
	for _, w := range parallelWorkerBudgets {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			srv := httptest.NewServer(service.New(service.Config{Workers: w, CacheSize: 4 * 1024}).Handler())
			defer srv.Close()
			req := service.AnalyzeRequest{
				Spec: &spec.Spec{Game: "doublewell", N: 16, C: 5, Delta1: 1},
			}
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				req.Beta = 1 + float64(i)*1e-9 // defeat the cache
				servicePost(b, srv, "/v1/analyze", req)
			}
			perOp[w] = time.Since(start) / time.Duration(b.N)
		})
	}
	assertParallelSpeedup(b, perOp)
}

// Allocation-budget guardrails for the scratch-arena layer. These are the
// committed evidence behind BENCH_alloc.json: the cache-cold 65,536-profile
// sparse analysis used to cost 134,360 allocs/op; the arena + in-place hot
// paths brought the warm steady state under the budgets below, and any
// change that silently re-introduces per-iteration allocation on the hot
// path fails here. CI runs them with -benchtime 3x -cpu 1,2, the shapes
// the budgets were measured on: at two CPUs every parallel loop's
// goroutine spawns count as allocations too, which is why Lanczos spawns
// its worker team once per call rather than once per projection.

// allocBudgetSparseAnalyze65536 bounds allocated OBJECTS per warm-arena
// 65,536-profile sparse analysis. Measured steady state is ~300 at one
// CPU and ~650 at two; the budget leaves headroom for harness noise while
// still sitting ~65× under the pre-arena count.
const allocBudgetSparseAnalyze65536 = 2_000

func BenchmarkAllocSparseAnalyze65536(b *testing.B) {
	g := parallelBenchGame(b)
	ar := scratch.NewArena()
	analyze := func() {
		rep, err := core.AnalyzeGame(g, 1, core.Options{Backend: "sparse", Parallel: linalg.ParallelConfig{Arena: ar}})
		if err != nil {
			b.Fatal(err)
		}
		if rep.NumProfiles != 1<<16 {
			b.Fatalf("num profiles %d", rep.NumProfiles)
		}
		// The caller owns the arena's lifecycle (the service does this via
		// Pool.Release); Reset is what makes the next iteration warm.
		ar.Reset()
	}
	analyze() // warm checkout: the budget is the steady-state cost
	b.ReportAllocs()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze()
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / uint64(b.N); per > allocBudgetSparseAnalyze65536 {
		b.Fatalf("warm-arena sparse analyze allocated %d objects/op, budget %d — the scratch hot path regressed", per, allocBudgetSparseAnalyze65536)
	}
}

// BenchmarkAllocSweepSameShape16 is the warm same-shape sweep workload: 16
// β-points over one 8,192-profile double-well run serially through
// sweep.Runner, so every point after the first reuses the previous point's
// entire workspace (CSR arrays, potential table, Lanczos basis) from the
// arena pool. The scratch=off variant is the fresh-allocation control.
func BenchmarkAllocSweepSameShape16(b *testing.B) {
	for _, mode := range []string{"scratch=on", "scratch=off"} {
		b.Run(mode, func(b *testing.B) {
			var sp *scratch.Pool
			if mode == "scratch=on" {
				sp = scratch.NewPool()
			}
			grid, err := sweep.ParseGrid(strings.NewReader(`{
			  "name": "same-shape-16",
			  "axes": {"game": ["doublewell"], "n": [13], "beta": {"from": 0.5, "to": 2, "steps": 16}},
			  "base": {"c": 4, "delta1": 1}
			}`))
			if err != nil {
				b.Fatal(err)
			}
			runner := &sweep.Runner{Eval: sweep.DirectEvalScratch(nil, nil, sp), Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := runner.Run(context.Background(), grid)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Analyzed != 16 {
					b.Fatalf("analyzed %d of 16 points", stats.Analyzed)
				}
			}
		})
	}
}

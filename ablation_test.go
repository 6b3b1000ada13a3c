package logitdyn_test

import (
	"testing"

	"logitdyn/internal/coupling"
	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: each pair
// (or trio) times the chosen implementation against the alternative it
// replaced, on the same inputs, so the trade-offs stay measured rather than
// asserted.

// --- Ablation 1: spectral mixing-time measurement vs brute-force evolution.
// The spectral route costs one eigendecomposition and then evaluates d(t)
// at ~2·log2(t_mix) probe points; evolution pays per step. At β = 2 the
// chain needs hundreds of steps and evolution already loses; at large β it
// is not even feasible.

func BenchmarkAblationMixingSpectral(b *testing.B) {
	dw, _ := game.NewDoubleWell(8, 3, 1)
	d, _ := logit.New(dw, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mixing.ExactMixingTimePar(d, 0.25, 1<<50, linalg.ParallelConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMixingEvolution(b *testing.B) {
	dw, _ := game.NewDoubleWell(8, 3, 1)
	d, _ := logit.New(dw, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mixing.EvolutionMixingTimePar(d, 0.25, 1<<20, nil, linalg.ParallelConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 2: sparse vs dense distribution evolution. Logit chains have
// O(n) non-zeros per row out of |S| columns; sparse wins by ~|S|/n.

func evolveSetup() (*linalg.CSR, *linalg.Dense, []float64) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(10), base)
	d, _ := logit.New(g, 1)
	s := d.TransitionCSRPar(linalg.Serial)
	src := make([]float64, s.NRows)
	for i := range src {
		src[i] = 1 / float64(s.NRows)
	}
	return s, s.Dense(), src
}

func BenchmarkAblationEvolveSparse(b *testing.B) {
	s, _, src := evolveSetup()
	dst := make([]float64, s.NRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatVecTrans(dst, src)
	}
}

func BenchmarkAblationEvolveDense(b *testing.B) {
	_, p, src := evolveSetup()
	dst := make([]float64, p.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.VecMul(dst, src)
	}
}

// --- Ablation 3: closed-form Gibbs measure vs direct null-space solve.
// Gibbs is O(|S|·n) utility evaluations; the LU solve is O(|S|³).

func BenchmarkAblationStationaryGibbs(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	d, _ := logit.New(g, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.GibbsPar(linalg.Serial); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStationaryDirect(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	d, _ := logit.New(g, 1)
	p := d.TransitionDensePar(linalg.ParallelConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markov.StationaryDirect(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 4: exact subset-DP cutwidth vs local-search heuristic. The
// DP is exponential in n but exact; the heuristic is polynomial and, on the
// structured families the paper uses, typically exact too.

func BenchmarkAblationCutwidthExact(b *testing.B) {
	g := graph.Grid(3, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ExactCutwidth(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCutwidthHeuristic(b *testing.B) {
	g := graph.Grid(3, 4)
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.HeuristicCutwidth(g, 2, r)
	}
}

// --- Ablation 5: categorical sampling by linear scan vs alias table. The
// logit step samples from per-player update distributions of size m; the
// alias table wins once the same distribution is sampled repeatedly.

func BenchmarkAblationCategoricalScan(b *testing.B) {
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Categorical(weights)
	}
}

func BenchmarkAblationCategoricalAlias(b *testing.B) {
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	a := rng.NewAlias(weights)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(r)
	}
}

// --- Ablation 6: CFTP exact sampling vs long-trajectory burn-in for
// drawing one stationary sample on a ring coordination game.

func BenchmarkAblationSampleCFTP(b *testing.B) {
	g, _ := game.NewIsing(graph.Ring(8), 1)
	d, _ := logit.New(g, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i) + 1)
		if _, err := coupling.CFTP(d, r, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSampleBurnIn(b *testing.B) {
	g, _ := game.NewIsing(graph.Ring(8), 1)
	d, _ := logit.New(g, 0.5)
	// Burn-in matched to the measured t_mix at this β (~60 steps); use 128.
	const burn = 128
	x := make([]int, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i) + 1)
		for k := range x {
			x[k] = 0
		}
		for s := 0; s < burn; s++ {
			d.Step(x, r)
		}
	}
}

package logit

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

func mustDyn(t *testing.T, g game.Game, beta float64) *Dynamics {
	t.Helper()
	d, err := New(g, beta)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func coordination(t *testing.T) game.Coordination2x2 {
	t.Helper()
	g, err := game.NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := coordination(t)
	if _, err := New(nil, 1); err == nil {
		t.Error("nil game must be rejected")
	}
	if _, err := New(g, -1); err == nil {
		t.Error("negative beta must be rejected")
	}
	if _, err := New(g, math.Inf(1)); err == nil {
		t.Error("infinite beta must be rejected")
	}
	if _, err := New(g, math.NaN()); err == nil {
		t.Error("NaN beta must be rejected")
	}
}

func TestUpdateProbsBetaZeroUniform(t *testing.T) {
	d := mustDyn(t, coordination(t), 0)
	p := d.UpdateProbs(0, []int{0, 0}, nil)
	for _, v := range p {
		if math.Abs(v-0.5) > 1e-15 {
			t.Fatalf("β=0 update = %v, want uniform", p)
		}
	}
}

func TestUpdateProbsMatchesClosedForm(t *testing.T) {
	// For the coordination game at profile (·, 0), player 0 compares
	// u(0)=a=3 against u(1)=d=0, so σ(0) = e^{3β}/(e^{3β}+1).
	beta := 0.7
	d := mustDyn(t, coordination(t), beta)
	p := d.UpdateProbs(0, []int{1, 0}, nil)
	want := math.Exp(3*beta) / (math.Exp(3*beta) + 1)
	if math.Abs(p[0]-want) > 1e-12 {
		t.Fatalf("σ(0 | x) = %g, want %g", p[0], want)
	}
	if math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatalf("update probs do not sum to 1: %v", p)
	}
}

func TestUpdateProbsLargeBetaNoOverflow(t *testing.T) {
	// β = 10^6 with utility gaps of 3 would overflow a naive exp.
	d := mustDyn(t, coordination(t), 1e6)
	p := d.UpdateProbs(0, []int{1, 0}, nil)
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Fatalf("overflow: %v", p)
	}
	if p[0] < 1-1e-12 {
		t.Fatalf("best response probability = %g, want ≈1", p[0])
	}
}

func TestUpdateProbsReusesDst(t *testing.T) {
	d := mustDyn(t, coordination(t), 1)
	dst := make([]float64, 2)
	out := d.UpdateProbs(0, []int{0, 0}, dst)
	if &out[0] != &dst[0] {
		t.Error("UpdateProbs must reuse a correctly sized dst")
	}
}

func TestTransitionIsStochastic(t *testing.T) {
	games := map[string]game.Game{
		"coordination": coordination(t),
		"dominant":     mustDominant(t, 3, 2),
		"congestion":   mustCongestion(t),
	}
	for name, g := range games {
		for _, beta := range []float64{0, 0.5, 2, 50} {
			d := mustDyn(t, g, beta)
			p := d.TransitionCSRPar(linalg.ParallelConfig{})
			for x, sum := range linalg.RowSums(p) {
				if math.Abs(sum-1) > 1e-12 {
					t.Errorf("%s β=%g: row %d sums to %g", name, beta, x, sum)
				}
			}
			for _, v := range p.Val {
				if v < 0 {
					t.Errorf("%s β=%g: negative probability %g", name, beta, v)
				}
			}
		}
	}
}

func mustDominant(t *testing.T, n, m int) game.DominantDiagonal {
	t.Helper()
	g, err := game.NewDominantDiagonal(n, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustCongestion(t *testing.T) *game.Congestion {
	t.Helper()
	g, err := game.NewLinearCongestion(3, []float64{1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGibbsIsStationary(t *testing.T) {
	// πP = π for the Gibbs measure of a potential game — the fundamental
	// reversibility fact the whole paper rests on.
	base := coordination(t)
	ring, err := game.NewGraphical(graph.Ring(4), base)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]game.Game{
		"coordination2x2": base,
		"graphical-ring4": ring,
		"dominant":        mustDominant(t, 3, 2),
		"congestion":      mustCongestion(t),
	} {
		for _, beta := range []float64{0, 0.3, 1, 4} {
			d := mustDyn(t, g, beta)
			pi, err := d.GibbsPar(linalg.Serial)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := d.TransitionDensePar(linalg.ParallelConfig{})
			next := make([]float64, len(pi))
			p.VecMul(next, pi)
			if tv := markov.TVDistance(pi, next); tv > 1e-12 {
				t.Errorf("%s β=%g: ||πP − π||_TV = %g", name, beta, tv)
			}
			if err := markov.CheckReversible(p, pi, 1e-12); err != nil {
				t.Errorf("%s β=%g: %v", name, beta, err)
			}
		}
	}
}

func TestGibbsMatchesDirectSolve(t *testing.T) {
	d := mustDyn(t, coordination(t), 1.3)
	gibbs, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := markov.StationaryDirect(d.TransitionDensePar(linalg.ParallelConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if tv := markov.TVDistance(gibbs, direct); tv > 1e-10 {
		t.Fatalf("Gibbs vs direct TV = %g", tv)
	}
}

func TestGibbsRequiresPotential(t *testing.T) {
	// Matching pennies exposes no potential.
	g := game.NewTableGame([]int{2, 2})
	sp := g.Space()
	for idx := 0; idx < sp.Size(); idx++ {
		x := sp.Decode(idx, nil)
		v := 1.0
		if x[0] != x[1] {
			v = -1
		}
		g.SetUtilityIndexed(0, idx, v)
		g.SetUtilityIndexed(1, idx, -v)
	}
	d := mustDyn(t, g, 1)
	if _, err := d.GibbsPar(linalg.Serial); err == nil {
		t.Fatal("Gibbs on a non-potential game must error")
	}
	// Stationary must fall back to the direct solve and still satisfy πP=π.
	pi, err := d.StationaryPar(linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := d.TransitionDensePar(linalg.ParallelConfig{})
	next := make([]float64, len(pi))
	p.VecMul(next, pi)
	if tv := markov.TVDistance(pi, next); tv > 1e-10 {
		t.Fatalf("fallback stationary TV = %g", tv)
	}
}

func TestGibbsLargeBetaConcentratesOnMinima(t *testing.T) {
	// δ0 = 3 > δ1 = 2: (0,0) has strictly lower potential, so as β grows the
	// Gibbs measure concentrates there (risk dominance, Blume 1993).
	d := mustDyn(t, coordination(t), 20)
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	idx00 := d.Space().Encode([]int{0, 0})
	if pi[idx00] < 1-1e-6 {
		t.Fatalf("π(0,0) = %g at β=20, want ≈1", pi[idx00])
	}
}

func TestGibbsBetaZeroUniform(t *testing.T) {
	d := mustDyn(t, coordination(t), 0)
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pi {
		if math.Abs(v-0.25) > 1e-15 {
			t.Fatalf("β=0 Gibbs = %v, want uniform", pi)
		}
	}
}

func TestStepMatchesTransitionEmpirically(t *testing.T) {
	// Empirical one-step distribution from a fixed state must match the
	// transition row within sampling error.
	d := mustDyn(t, coordination(t), 1)
	sp := d.Space()
	start := sp.Encode([]int{0, 1})
	p := d.TransitionDensePar(linalg.ParallelConfig{})
	const trials = 200000
	r := rng.New(99)
	counts := make([]float64, sp.Size())
	x := make([]int, sp.Players())
	for k := 0; k < trials; k++ {
		sp.Decode(start, x)
		d.Step(x, r)
		counts[sp.Encode(x)]++
	}
	for idx := range counts {
		counts[idx] /= trials
	}
	for idx := range counts {
		want := p.At(start, idx)
		if math.Abs(counts[idx]-want) > 0.005 {
			t.Fatalf("state %d: empirical %g vs exact %g", idx, counts[idx], want)
		}
	}
}

func TestTrajectoryOccupancyApproachesGibbs(t *testing.T) {
	// Ergodic average over a long trajectory must approach the Gibbs
	// measure (law of large numbers for Markov chains).
	d := mustDyn(t, coordination(t), 0.8)
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	const steps = 400000
	counts := d.Trajectory([]int{0, 1}, steps, r)
	emp := make([]float64, len(counts))
	for i, c := range counts {
		emp[i] = float64(c) / float64(steps+1)
	}
	if tv := markov.TVDistance(emp, pi); tv > 0.01 {
		t.Fatalf("occupancy vs Gibbs TV = %g", tv)
	}
}

func BenchmarkTransitionSparseRing8(b *testing.B) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	d, _ := New(g, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.TransitionCSRPar(linalg.ParallelConfig{})
	}
}

func BenchmarkStep(b *testing.B) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(16), base)
	d, _ := New(g, 1)
	r := rng.New(1)
	x := make([]int, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Step(x, r)
	}
}

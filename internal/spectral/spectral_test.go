package spectral

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
)

// twoStateChain returns the chain P = [[1−a, a], [b, 1−b]] and its
// stationary distribution.
func twoStateChain(a, b float64) (*linalg.Dense, []float64) {
	p := linalg.FromRows([][]float64{{1 - a, a}, {b, 1 - b}})
	pi := []float64{b / (a + b), a / (a + b)}
	return p, pi
}

func TestDecomposeTwoStateSpectrum(t *testing.T) {
	// Eigenvalues of the two-state chain are 1 and 1−a−b.
	a, b := 0.3, 0.2
	p, pi := twoStateChain(a, b)
	dec, err := Decompose(p, pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]-1) > 1e-12 {
		t.Errorf("λ1 = %g", dec.Values[0])
	}
	if math.Abs(dec.Values[1]-(1-a-b)) > 1e-12 {
		t.Errorf("λ2 = %g, want %g", dec.Values[1], 1-a-b)
	}
	if g := dec.SpectralGap(); math.Abs(g-(a+b)) > 1e-12 {
		t.Errorf("gap = %g, want %g", g, a+b)
	}
	if r := dec.RelaxationTime(); math.Abs(r-1/(a+b)) > 1e-9 {
		t.Errorf("t_rel = %g, want %g", r, 1/(a+b))
	}
}

func TestDecomposeRejectsNonReversible(t *testing.T) {
	cyc := linalg.FromRows([][]float64{
		{0, 0.9, 0.1},
		{0.1, 0, 0.9},
		{0.9, 0.1, 0},
	})
	uniform := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if _, err := Decompose(cyc, uniform); err == nil {
		t.Fatal("non-reversible chain must be rejected")
	}
}

func TestDecomposeRejectsZeroPi(t *testing.T) {
	p, _ := twoStateChain(0.3, 0.2)
	if _, err := Decompose(p, []float64{1, 0}); err == nil {
		t.Fatal("zero stationary mass must be rejected")
	}
}

func TestDistanceMatchesBruteForce(t *testing.T) {
	// Exact d(t) from the decomposition must equal brute-force evolution of
	// every row of P^t.
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	dyn, _ := logit.New(base, 0.8)
	p := dyn.TransitionDensePar(linalg.ParallelConfig{})
	pi, err := dyn.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompose(p, pi)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Rows
	for _, tt := range []int64{0, 1, 2, 5, 10, 50} {
		// Brute force: evolve a point mass from each start.
		want := 0.0
		for x := 0; x < n; x++ {
			e := make([]float64, n)
			e[x] = 1
			mu := markov.Evolve(p, e, int(tt))
			if tv := markov.TVDistance(mu, pi); tv > want {
				want = tv
			}
		}
		got := dec.Distance(tt)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("t=%d: spectral %g vs brute force %g", tt, got, want)
		}
	}
}

func TestDistanceFromMatchesBruteForce(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	dyn, _ := logit.New(base, 1.1)
	p := dyn.TransitionDensePar(linalg.ParallelConfig{})
	pi, _ := dyn.GibbsPar(linalg.Serial)
	dec, err := Decompose(p, pi)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < p.Rows; x++ {
		e := make([]float64, p.Rows)
		e[x] = 1
		mu := markov.Evolve(p, e, 7)
		want := markov.TVDistance(mu, pi)
		if got := dec.DistanceFrom(x, 7); math.Abs(got-want) > 1e-10 {
			t.Errorf("x=%d: %g vs %g", x, got, want)
		}
	}
}

func TestDistanceMonotoneNonIncreasing(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	dyn, _ := logit.New(base, 2)
	dec := mustDecompose(t, dyn)
	prev := dec.Distance(0)
	for _, tt := range []int64{1, 2, 4, 8, 16, 32, 64, 128} {
		cur := dec.Distance(tt)
		if cur > prev+1e-12 {
			t.Fatalf("d(%d) = %g > previous %g", tt, cur, prev)
		}
		prev = cur
	}
}

func mustDecompose(t *testing.T, dyn *logit.Dynamics) *Decomposition {
	t.Helper()
	pi, err := dyn.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompose(dyn.TransitionDensePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestMixingTimeIsExactThreshold(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	dyn, _ := logit.New(base, 1)
	dec := mustDecompose(t, dyn)
	tm, err := dec.MixingTime(0.25, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Distance(tm) > 0.25 {
		t.Fatalf("d(t_mix) = %g > ε", dec.Distance(tm))
	}
	if tm > 0 && dec.Distance(tm-1) <= 0.25 {
		t.Fatalf("t_mix not minimal: d(t_mix−1) = %g", dec.Distance(tm-1))
	}
}

func TestMixingTimeRespectsMaxT(t *testing.T) {
	// Very large β on a double-well: mixing time is astronomically large.
	dw, err := game.NewDoubleWell(6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := logit.New(dw, 40)
	dec := mustDecompose(t, dyn)
	if _, err := dec.MixingTime(0.25, 1000); err == nil {
		t.Fatal("mixing time beyond maxT must error")
	}
}

func TestMixingTimeInvalidEps(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	dyn, _ := logit.New(base, 1)
	dec := mustDecompose(t, dyn)
	if _, err := dec.MixingTime(0, 100); err == nil {
		t.Error("ε=0 must error")
	}
	if _, err := dec.MixingTime(1, 100); err == nil {
		t.Error("ε=1 must error")
	}
}

func TestRelaxationSandwich(t *testing.T) {
	// Theorem 2.3: (t_rel−1)·log(1/2ε) <= t_mix(ε) <= t_rel·log(1/(ε·π_min)).
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	for _, beta := range []float64{0.2, 0.8, 1.5} {
		dyn, _ := logit.New(base, beta)
		dec := mustDecompose(t, dyn)
		tm, err := dec.MixingTime(0.25, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := dec.MixingTimeBoundsFromRelaxation(0.25)
		if float64(tm) < lo-1 || float64(tm) > hi+1 {
			t.Errorf("β=%g: t_mix=%d outside sandwich [%g, %g]", beta, tm, lo, hi)
		}
	}
}

func TestTheorem31EigenvaluesNonnegative(t *testing.T) {
	// Theorem 3.1: every eigenvalue of the logit chain of a potential game
	// is non-negative. Exercise it across game families and β values, and
	// check that Decompose returns the spectrum from λ1 = 1 in
	// non-increasing order.
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	ringGame, _ := game.NewGraphical(graph.Ring(4), base)
	dw, _ := game.NewDoubleWell(5, 2, 1)
	dom, _ := game.NewDominantDiagonal(3, 2)
	cong, _ := game.NewLinearCongestion(3, []float64{1, 2}, []float64{0, 1})
	for name, g := range map[string]game.Game{
		"coordination": base,
		"ring":         ringGame,
		"double-well":  dw,
		"dominant":     dom,
		"congestion":   cong,
	} {
		for _, beta := range []float64{0, 0.5, 1, 3} {
			dyn, _ := logit.New(g, beta)
			dec := mustDecompose(t, dyn)
			if min := dec.MinEigenvalue(); min < -1e-9 {
				t.Errorf("%s β=%g: λ_min = %g < 0 violates Theorem 3.1", name, beta, min)
			}
			if dec.Values[0] != 1 {
				t.Errorf("%s β=%g: λ1 = %g", name, beta, dec.Values[0])
			}
			for i := 1; i < len(dec.Values); i++ {
				if dec.Values[i] > dec.Values[i-1]+1e-12 {
					t.Fatalf("%s β=%g: spectrum %v is not non-increasing", name, beta, dec.Values)
				}
			}
		}
	}
}

func TestLambdaStarSingleState(t *testing.T) {
	p := linalg.FromRows([][]float64{{1}})
	dec, err := Decompose(p, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.LambdaStar() != 0 {
		t.Errorf("λ* = %g for the trivial chain", dec.LambdaStar())
	}
	if dec.Distance(5) != 0 {
		t.Error("trivial chain has zero distance")
	}
}

func TestPowInt(t *testing.T) {
	if math.Abs(powInt(0.5, 2)-0.25) > 1e-15 {
		t.Error("powInt(0.5, 2)")
	}
	if math.Abs(powInt(-0.5, 2)-0.25) > 1e-15 {
		t.Error("powInt(-0.5, 2)")
	}
	if math.Abs(powInt(-0.5, 3)+0.125) > 1e-15 {
		t.Error("powInt(-0.5, 3)")
	}
	if powInt(0, 5) != 0 {
		t.Error("powInt(0, 5)")
	}
	if powInt(0.9, 0) != 1 {
		t.Error("powInt(x, 0)")
	}
	// No overflow at astronomical t.
	if v := powInt(0.999999, 1<<50); v != 0 && math.IsInf(v, 0) {
		t.Error("powInt overflow")
	}
}

func BenchmarkDistanceRing6(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(6), base)
	dyn, _ := logit.New(g, 1)
	pi, _ := dyn.GibbsPar(linalg.Serial)
	dec, err := Decompose(dyn.TransitionDensePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec.Distance(1000)
	}
}

func BenchmarkDecomposeRing8(b *testing.B) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(8), base)
	dyn, _ := logit.New(g, 1)
	pi, _ := dyn.GibbsPar(linalg.Serial)
	p := dyn.TransitionDensePar(linalg.ParallelConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(p, pi); err != nil {
			b.Fatal(err)
		}
	}
}

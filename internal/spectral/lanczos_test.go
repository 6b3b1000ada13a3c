package spectral

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

func lanczosForGame(t *testing.T, g game.Game, beta float64, iters int) (*LanczosResult, *logit.Dynamics) {
	t.Helper()
	d, err := logit.New(g, beta)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := d.StationaryPar(linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewSymOperator(d.TransitionSparsePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lanczos(op, iters, 1e-12, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

func TestLanczosMatchesDenseOnSmallChains(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	ringGame, _ := game.NewGraphical(graph.Ring(6), base)
	dw, _ := game.NewDoubleWell(6, 2, 1)
	for name, g := range map[string]game.Game{
		"coordination": base,
		"ring6":        ringGame,
		"double-well":  dw,
	} {
		for _, beta := range []float64{0.3, 1, 2} {
			res, d := lanczosForGame(t, g, beta, 200)
			pi, _ := d.StationaryPar(linalg.ParallelConfig{})
			dec, err := Decompose(d.TransitionDensePar(linalg.ParallelConfig{}), pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Lambda2-dec.Values[1]) > 1e-8 {
				t.Errorf("%s β=%g: Lanczos λ2 = %.12f vs dense %.12f", name, beta, res.Lambda2, dec.Values[1])
			}
			if math.Abs(res.LambdaMin-dec.MinEigenvalue()) > 1e-6 {
				t.Errorf("%s β=%g: Lanczos λmin = %.10f vs dense %.10f", name, beta, res.LambdaMin, dec.MinEigenvalue())
			}
		}
	}
}

func TestLanczosOperatorFixesTopVector(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	d, _ := logit.New(base, 1)
	pi, _ := d.StationaryPar(linalg.ParallelConfig{})
	op, err := NewSymOperator(d.TransitionSparsePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		t.Fatal(err)
	}
	psi := op.TopVector()
	out := make([]float64, len(psi))
	op.Apply(out, psi)
	for i := range psi {
		if math.Abs(out[i]-psi[i]) > 1e-12 {
			t.Fatalf("A·ψ1 != ψ1 at %d: %g vs %g", i, out[i], psi[i])
		}
	}
}

func TestLanczosLargeRingWithinTheorems(t *testing.T) {
	// Ring n = 14 → 16384 states: far beyond what the dense experiments
	// touch. The Lanczos relaxation time must satisfy the Theorem 2.3 +
	// Theorem 5.6/5.7 envelope:
	//   (t_rel − 1)·log(1/2ε) <= Thm 5.6 upper  and  t_rel >= Thm 5.7-ish.
	n := 14
	delta, beta := 1.0, 0.5
	g, err := game.NewIsing(graph.Ring(n), delta)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := lanczosForGame(t, g, beta, 300)
	trel := res.RelaxationTime()
	if math.IsInf(trel, 0) {
		t.Fatal("relaxation time not resolved")
	}
	eps := 0.25
	lower := (trel - 1) * math.Log(1/(2*eps))
	// Theorem 5.6 upper bound, inlined to avoid a spectral↔mixing import
	// cycle in tests: n(1+e^{2δβ})(log n + log 1/ε)/2.
	upper56 := float64(n) * (1 + math.Exp(2*delta*beta)) * (math.Log(float64(n)) + math.Log(1/eps)) / 2
	if lower > upper56 {
		t.Errorf("spectral lower bound %g exceeds Theorem 5.6 upper %g", lower, upper56)
	}
	// Theorem 5.7 lower bound (1−2ε)/2·(1+e^{2δβ}) must be finite/positive.
	if lower < 0 || (1-2*eps)/2*(1+math.Exp(2*delta*beta)) <= 0 {
		t.Error("degenerate bounds")
	}
}

func TestLanczosEarlyTermination(t *testing.T) {
	// A two-state chain has a 1-dimensional restriction: Lanczos must stop
	// after one step and return the exact λ2 = 1 − a − b.
	a, b := 0.3, 0.2
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	_ = base
	s := sparseTwoState(a, b)
	pi := []float64{b / (a + b), a / (a + b)}
	op, err := NewSymOperator(s, pi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lanczos(op, 50, 1e-12, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	if math.Abs(res.Lambda2-(1-a-b)) > 1e-12 {
		t.Errorf("λ2 = %g, want %g", res.Lambda2, 1-a-b)
	}
}

func sparseTwoState(a, b float64) *markov.Sparse {
	s := markov.NewSparse(2)
	s.Rows[0] = []markov.Entry{{To: 0, P: 1 - a}, {To: 1, P: a}}
	s.Rows[1] = []markov.Entry{{To: 0, P: b}, {To: 1, P: 1 - b}}
	return s
}

func TestLanczosValidation(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	if _, err := NewSymOperator(s, []float64{0.5}); err == nil {
		t.Error("size mismatch must error")
	}
	if _, err := NewSymOperator(s, []float64{1, 0}); err == nil {
		t.Error("zero mass must error")
	}
	op, _ := NewSymOperator(s, []float64{0.4, 0.6})
	if _, err := Lanczos(op, 1, 1e-12, rng.New(1)); err == nil {
		t.Error("maxIter < 2 must error")
	}
}

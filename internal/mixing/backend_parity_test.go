package mixing

import (
	"math"
	"testing"

	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
	"logitdyn/internal/spectral"
)

// Backend parity: every built-in game family must produce the same
// transition operator, stationary distribution and λ* through the dense,
// CSR sparse and matrix-free backends, within 1e-9. This is the contract
// that lets auto route large requests to the iterative backends without
// changing any answer.

var parityFamilies = []struct {
	name string
	s    spec.Spec
}{
	{"coordination", spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}},
	{"graphical-ring", spec.Spec{Game: "graphical", Graph: "ring", N: 4, Delta0: 3, Delta1: 2}},
	{"ising-ring", spec.Spec{Game: "ising", Graph: "ring", N: 5, Delta1: 1}},
	{"weighted-ring", spec.Spec{Game: "weighted", Graph: "ring", N: 4, Seed: 3}},
	{"doublewell", spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}},
	{"asymwell", spec.Spec{Game: "asymwell", N: 6, C: 2, Depth: 3, Shallow: 1}},
	{"dominant", spec.Spec{Game: "dominant", N: 3, M: 3}},
	{"congestion", spec.Spec{Game: "congestion", N: 4, M: 3}},
	{"random", spec.Spec{Game: "random", N: 4, M: 3, Seed: 7}},
}

func parityDyn(t *testing.T, s spec.Spec) *logit.Dynamics {
	t.Helper()
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := logit.New(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// backends returns the three concrete operators for the dynamics.
func parityOperators(d *logit.Dynamics) map[string]linalg.Operator {
	return map[string]linalg.Operator{
		"dense":   d.TransitionDense(),
		"sparse":  d.TransitionCSRPar(linalg.ParallelConfig{}),
		"rowlist": d.TransitionSparse(),
		"matfree": d.MatFree(),
	}
}

func TestBackendMatVecParity(t *testing.T) {
	for _, fam := range parityFamilies {
		t.Run(fam.name, func(t *testing.T) {
			d := parityDyn(t, fam.s)
			n := d.Space().Size()
			ops := parityOperators(d)
			dense := ops["dense"]

			r := rng.New(11)
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Float64() - 0.5
			}
			want := make([]float64, n)
			dense.MatVec(want, x)
			wantT := make([]float64, n)
			dense.MatVecTrans(wantT, x)

			for name, op := range ops {
				if name == "dense" {
					continue
				}
				got := make([]float64, n)
				op.MatVec(got, x)
				if diff := maxAbsDiff(want, got); diff > 1e-12 {
					t.Errorf("%s MatVec differs from dense by %g", name, diff)
				}
				op.MatVecTrans(got, x)
				if diff := maxAbsDiff(wantT, got); diff > 1e-12 {
					t.Errorf("%s MatVecTrans differs from dense by %g", name, diff)
				}
			}
		})
	}
}

func TestBackendStationaryParity(t *testing.T) {
	for _, fam := range parityFamilies {
		t.Run(fam.name, func(t *testing.T) {
			d := parityDyn(t, fam.s)
			direct, err := markov.StationaryDirect(d.TransitionDense())
			if err != nil {
				t.Fatal(err)
			}
			for name, op := range parityOperators(d) {
				power, err := markov.StationaryPowerOp(op, 1e-14, 2_000_000)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if tv := markov.TVDistance(direct, power); tv > 1e-9 {
					t.Errorf("%s power iteration vs dense direct solve: TV = %g", name, tv)
				}
			}
		})
	}
}

func TestBackendLambdaStarParity(t *testing.T) {
	for _, fam := range parityFamilies {
		t.Run(fam.name, func(t *testing.T) {
			d := parityDyn(t, fam.s)
			pi, err := d.Stationary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := spectral.Decompose(d.TransitionDense(), pi)
			if err != nil {
				t.Fatal(err)
			}
			want := dec.LambdaStar()
			n := d.Space().Size()
			for name, op := range parityOperators(d) {
				if name == "dense" {
					continue
				}
				sym, err := spectral.NewSymOperator(op, pi)
				if err != nil {
					t.Fatal(err)
				}
				res, err := spectral.Lanczos(sym, n, 1e-13, rng.New(5))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if diff := math.Abs(res.LambdaStar() - want); diff > 1e-9 {
					t.Errorf("%s Lanczos λ* = %.12g, dense λ* = %.12g (diff %g)",
						name, res.LambdaStar(), want, diff)
				}
			}
		})
	}
}

// TestRelaxationSandwichBracketsExactMixing checks the Theorem 2.3 sandwich
// the Lanczos route reports actually contains the exact dense-path mixing
// time on every family.
func TestRelaxationSandwichBracketsExactMixing(t *testing.T) {
	for _, fam := range parityFamilies {
		t.Run(fam.name, func(t *testing.T) {
			d := parityDyn(t, fam.s)
			exact, err := ExactMixingTime(d, DefaultEps, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range []logit.Backend{logit.BackendSparse, logit.BackendMatFree} {
				res, err := RelaxationSandwichPar(d, backend, DefaultEps, nil, linalg.ParallelConfig{})
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if res.Exact {
					t.Fatalf("%s route must not claim exactness", backend)
				}
				if !res.Converged {
					t.Fatalf("%s route must converge on these small chains", backend)
				}
				tm := float64(exact.MixingTime)
				// The bounds are real-valued while t_mix is the integer
				// ceiling, so allow one step of slack on the lower side.
				if tm < res.SpectralLower-1 || tm > res.SpectralUpper+1 {
					t.Errorf("%s sandwich [%g, %g] misses exact t_mix = %d",
						backend, res.SpectralLower, res.SpectralUpper, exact.MixingTime)
				}
				if diff := math.Abs(res.LambdaStar - exact.LambdaStar); diff > 1e-9 {
					t.Errorf("%s λ* = %g vs dense %g", backend, res.LambdaStar, exact.LambdaStar)
				}
			}
		})
	}
}

package mixing

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
	"logitdyn/internal/spectral"
)

// referenceDenseRoute is the dense route as three separate steps: π from
// StationaryPar, then Decompose on a fresh TransitionDensePar build and the
// d(t) search, then — on any error from either — evolution on a third
// build, capped at min(maxT, 2^20) steps, with NaN spectral fields.
func referenceDenseRoute(d *logit.Dynamics, eps float64, maxT int64, par linalg.ParallelConfig) (*Result, error) {
	pi, err := d.StationaryPar(par)
	if err != nil {
		return nil, err
	}
	if dec, err := spectral.Decompose(d.TransitionDensePar(par), pi); err == nil {
		if tm, err := dec.WithParallel(par).MixingTime(eps, maxT); err == nil {
			lo, hi := dec.MixingTimeBoundsFromRelaxation(eps)
			return &Result{
				Beta: d.Beta(), Backend: logit.BackendDense, Exact: true, Converged: true, MixingTime: tm,
				RelaxationTime: dec.RelaxationTime(), LambdaStar: dec.LambdaStar(), MinEigenvalue: dec.MinEigenvalue(),
				SpectralLower: lo, SpectralUpper: hi, Stationary: pi,
			}, nil
		}
	}
	tm, err := EvolutionMixingTimePar(d, eps, int(min(maxT, 1<<20)), pi, par)
	if err != nil {
		return nil, err
	}
	nan := math.NaN()
	return &Result{
		Beta: d.Beta(), Backend: logit.BackendDense, Exact: true, Converged: true, MixingTime: tm,
		RelaxationTime: nan, LambdaStar: nan, MinEigenvalue: nan, SpectralLower: nan, SpectralUpper: nan,
		Stationary: pi,
	}, nil
}

// checkDenseRoute runs ExactMixingTimePar and the reference on d and fails
// unless both error or both return the same bits in every Result field. %v
// prints each float64 in its shortest round-trip form, so equal strings
// mean equal bits, with NaN equal to NaN.
func checkDenseRoute(t *testing.T, name string, d *logit.Dynamics, maxT int64, par linalg.ParallelConfig) *Result {
	t.Helper()
	got, err := ExactMixingTimePar(d, DefaultEps, maxT, par)
	want, refErr := referenceDenseRoute(d, DefaultEps, maxT, par)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: route error %v, reference error %v", name, err, refErr)
	}
	if err != nil {
		return nil
	}
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
		t.Fatalf("%s: route and reference differ:\n%s\nvs\n%s", name, g, w)
	}
	return got
}

func TestDenseRouteMatchesReference(t *testing.T) {
	for _, fam := range parityFamilies {
		d := parityDyn(t, fam.s)
		for _, workers := range []int{1, 2, 4} {
			checkDenseRoute(t, fmt.Sprintf("%s workers=%d", fam.name, workers), d, 1<<62,
				linalg.ParallelConfig{Workers: workers, MinRows: 1})
		}
	}
	// Matching pennies is not reversible: the route evolves.
	for _, beta := range []float64{0.5, 1, 2} {
		d, err := logit.New(matchingPennies(), beta)
		if err != nil {
			t.Fatal(err)
		}
		res := checkDenseRoute(t, fmt.Sprintf("matching-pennies β=%g", beta), d, 1<<62, linalg.ParallelConfig{})
		if !math.IsNaN(res.LambdaStar) {
			t.Fatalf("matching pennies β=%g: λ* = %g, want NaN from the evolution fallback", beta, res.LambdaStar)
		}
	}
	// At β = 1000 the Gibbs measure of the dominant game underflows to
	// zero off the dominant profile, so there is no decomposition and the
	// fallback answers.
	g, err := spec.Spec{Game: "dominant", N: 3, M: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := logit.New(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res := checkDenseRoute(t, "dominant β=1000", d, 1<<62, linalg.ParallelConfig{}); res.MixingTime != 31 || !math.IsNaN(res.LambdaStar) {
		t.Fatalf("dominant β=1000: t_mix %d, λ* %g; want 31 from the evolution fallback", res.MixingTime, res.LambdaStar)
	}
}

// countingGame counts Utility calls. It hides the wrapped game's utility
// table, so every transition build reads utilities through Utility.
type countingGame struct {
	game.Game
	calls atomic.Int64
}

func (c *countingGame) Utility(i int, x []int) float64 {
	c.calls.Add(1)
	return c.Game.Utility(i, x)
}

func TestDenseRouteBuildsOnce(t *testing.T) {
	// A random 2-strategy game has no potential: π is a dense solve and
	// the chain has no decomposition, so the route solves, fails to
	// decompose and evolves — all from one transition build.
	tg := game.NewTableGame([]int{2, 2, 2, 2, 2, 2})
	r := rng.New(17)
	for i := 0; i < tg.Players(); i++ {
		for idx := 0; idx < tg.Space().Size(); idx++ {
			tg.SetUtilityIndexed(i, idx, r.NormFloat64())
		}
	}
	g := &countingGame{Game: tg}
	d, err := logit.New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.TransitionCSRPar(linalg.ParallelConfig{})
	build := g.calls.Swap(0)
	res, err := ExactMixingTimePar(d, DefaultEps, 1<<62, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.LambdaStar) {
		t.Fatal("test setup: the random game's chain decomposed")
	}
	if n := g.calls.Load(); n != build {
		t.Fatalf("the dense route made %d utility calls, one transition build makes %d", n, build)
	}
}

// FuzzDenseRoute checks the one-build route against the three-step
// reference on random table games of at most 64 profiles, with and
// without a declared potential. maxT stays small so a slow chain ends in
// an error on both sides rather than a long evolution.
func FuzzDenseRoute(f *testing.F) {
	f.Add(uint64(0x15), uint8(1), true, uint64(3))
	f.Add(uint64(0x2b), uint8(2), false, uint64(8))
	f.Add(uint64(0x7fff), uint8(0), false, uint64(1))
	f.Fuzz(func(t *testing.T, shape uint64, betaSel uint8, withPhi bool, seed uint64) {
		beta := []float64{0, 1.3, 4}[betaSel%3]
		var sizes []int
		for prod, bits := 1, shape>>3; len(sizes) <= int(shape%6); bits >>= 2 {
			m := 1 + int(bits%4)
			if prod*m > 64 {
				break
			}
			sizes = append(sizes, m)
			prod *= m
		}
		g := game.NewTableGame(sizes)
		size := g.Space().Size()
		r := rng.New(seed)
		if withPhi {
			phi := make([]float64, size)
			for idx := range phi {
				phi[idx] = math.Round(2 * r.NormFloat64())
			}
			g.SetPhiTable(phi)
			for i := range sizes {
				for idx, v := range phi {
					g.SetUtilityIndexed(i, idx, -v)
				}
			}
		} else {
			for i := range sizes {
				for idx := 0; idx < size; idx++ {
					g.SetUtilityIndexed(i, idx, math.Round(2*r.NormFloat64()))
				}
			}
		}
		d, err := logit.New(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("sizes %v β=%g potential=%v", sizes, beta, withPhi)
		checkDenseRoute(t, name, d, 1<<12, linalg.ParallelConfig{Workers: 2, MinRows: 1})
	})
}

package stats

import (
	"testing"

	"logitdyn/internal/rng"
)

func TestBootstrapQuantileCIOrdering(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64() * 10
	}
	lo, hi, err := BootstrapQuantileCI(xs, 0.9, 300, 0.05, r)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("inverted interval [%g, %g]", lo, hi)
	}
	// The 90th quantile of U(0,10) is 9; the CI must be in its vicinity.
	if lo > 9.5 || hi < 8.5 {
		t.Fatalf("CI [%g, %g] implausibly far from 9", lo, hi)
	}
}

func TestBootstrapValidation(t *testing.T) {
	r := rng.New(1)
	if _, _, err := BootstrapQuantileCI(nil, 0.5, 100, 0.05, r); err == nil {
		t.Error("empty sample must error")
	}
	if _, _, err := BootstrapQuantileCI([]float64{1}, 1.5, 100, 0.05, r); err == nil {
		t.Error("bad quantile must error")
	}
	if _, _, err := BootstrapQuantileCI([]float64{1}, 0.5, 1, 0.05, r); err == nil {
		t.Error("iters < 2 must error")
	}
	if _, _, err := BootstrapQuantileCI([]float64{1}, 0.5, 100, 2, r); err == nil {
		t.Error("bad alpha must error")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	l1, h1, _ := BootstrapQuantileCI(xs, 0.5, 100, 0.1, rng.New(3))
	l2, h2, _ := BootstrapQuantileCI(xs, 0.5, 100, 0.1, rng.New(3))
	if l1 != l2 || h1 != h2 {
		t.Fatal("bootstrap must be deterministic given the seed")
	}
}

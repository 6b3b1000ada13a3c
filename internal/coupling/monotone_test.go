package coupling

import (
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
)

func TestMonotoneCoalescenceRejectsManyStrategies(t *testing.T) {
	g, _ := game.NewDominantDiagonal(2, 3)
	d, _ := logit.New(g, 1)
	if _, err := MonotoneCoalescenceTime(d, rng.New(1), 100); err == nil {
		t.Fatal("3-strategy game must be rejected")
	}
}

func TestMonotoneCoalescenceTimeout(t *testing.T) {
	d := ringDyn(t, 6, 2, 8)
	if _, err := MonotoneCoalescenceTime(d, rng.New(1), 5); err == nil {
		t.Fatal("tiny maxT must time out at large β")
	}
}

func TestMonotoneEstimateUpperBoundsExact(t *testing.T) {
	// The monotone top-bottom estimate must dominate the exact t_mix within
	// its confidence interval.
	d := ringDyn(t, 5, 1, 0.6)
	res, err := mixing.ExactMixingTimePar(d, 0.25, 1<<40, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est, _, ciHi, err := MonotoneMixingEstimate(d, 400, 0.25, rng.New(8), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if float64(est) < float64(res.MixingTime) && ciHi < float64(res.MixingTime) {
		t.Errorf("monotone estimate %d (CI hi %g) below exact t_mix %d", est, ciHi, res.MixingTime)
	}
}

func TestMonotoneEstimateAgreesWithMaximalCouplingOrder(t *testing.T) {
	// Both estimators upper-bound t_mix; the monotone one needs only the
	// single extreme pair. Sanity: both positive and finite.
	d := ringDyn(t, 4, 1, 0.5)
	est, lo, hi, err := MonotoneMixingEstimate(d, 200, 0.25, rng.New(2), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || lo > hi {
		t.Fatalf("degenerate estimate %d CI [%g, %g]", est, lo, hi)
	}
}

func TestMonotoneEstimateValidation(t *testing.T) {
	d := ringDyn(t, 4, 1, 0.5)
	if _, _, _, err := MonotoneMixingEstimate(d, 1, 0.25, rng.New(1), 100); err == nil {
		t.Fatal("trials < 2 must error")
	}
}

func TestMonotoneCoalescenceDeterministic(t *testing.T) {
	d := ringDyn(t, 5, 1, 0.7)
	a, err := MonotoneCoalescenceTime(d, rng.New(42), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonotoneCoalescenceTime(d, rng.New(42), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %d and %d", a, b)
	}
}

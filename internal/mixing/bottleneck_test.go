package mixing

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

func TestWeightMaskCounts(t *testing.T) {
	sp := game.NewSpace([]int{2, 2, 2})
	mask, err := WeightMask(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Profiles with weight < 2: weight 0 (1 profile) + weight 1 (3).
	count := 0
	for _, in := range mask {
		if in {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("mask size %d, want 4", count)
	}
}

func TestWeightMaskRejectsManyStrategies(t *testing.T) {
	sp := game.NewSpace([]int{3, 2})
	if _, err := WeightMask(sp, 1); err == nil {
		t.Fatal("3-strategy space must be rejected")
	}
}

func TestSingletonAndComplementMasks(t *testing.T) {
	m, err := SingletonMask(4, 2)
	if err != nil || !m[2] || m[0] || m[1] || m[3] {
		t.Fatalf("SingletonMask: %v %v", m, err)
	}
	c, err := ComplementOfState(4, 2)
	if err != nil || c[2] || !c[0] || !c[1] || !c[3] {
		t.Fatalf("ComplementOfState: %v %v", c, err)
	}
	if _, err := SingletonMask(4, 9); err == nil {
		t.Error("out-of-range singleton must error")
	}
	if _, err := ComplementOfState(4, -1); err == nil {
		t.Error("out-of-range complement must error")
	}
}

// Theorem 3.5's cut: the lower bound from R = {w < c} on a double well must
// hold against the measured mixing time, and the automated cut search must
// find a threshold at least as good.
func TestTheorem35CutHoldsOnDoubleWell(t *testing.T) {
	n, c := 6, 3
	dw, err := game.NewDoubleWell(n, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{1, 2, 3} {
		d, err := logit.New(dw, beta)
		if err != nil {
			t.Fatal(err)
		}
		mask, err := WeightMask(d.Space(), c)
		if err != nil {
			t.Fatal(err)
		}
		lower, bR, err := BottleneckBound(d, mask, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if bR <= 0 {
			t.Fatal("bottleneck ratio must be positive for an ergodic chain")
		}
		res, err := ExactMixingTimePar(d, DefaultEps, 1<<50, linalg.ParallelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.MixingTime) < lower-1 {
			t.Errorf("β=%g: measured t_mix %d below the exact bottleneck bound %g",
				beta, res.MixingTime, lower)
		}
		best, thr, err := BestWeightCut(d, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if best < lower-1e-9 {
			t.Errorf("β=%g: automated cut (thr=%d, %g) weaker than the theorem's cut (%g)",
				beta, thr, best, lower)
		}
		if float64(res.MixingTime) < best-1 {
			t.Errorf("β=%g: measured t_mix %d below automated bound %g", beta, res.MixingTime, best)
		}
	}
}

// Theorem 5.7's cut: R = {all-ones} on the ring. The exact B(R) must equal
// the closed form 1/(1+e^{2δβ}), so the exact bound matches the theorem.
func TestTheorem57CutMatchesClosedForm(t *testing.T) {
	nRing := 5
	delta := 1.0
	g, err := game.NewIsing(graph.Ring(nRing), delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0.5, 1, 1.5} {
		d, err := logit.New(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		sp := d.Space()
		ones := make([]int, nRing)
		for i := range ones {
			ones[i] = 1
		}
		mask, err := SingletonMask(sp.Size(), sp.Encode(ones))
		if err != nil {
			t.Fatal(err)
		}
		_, bR, err := BottleneckBound(d, mask, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (1 + math.Exp(2*delta*beta))
		if math.Abs(bR-want) > 1e-10 {
			t.Errorf("β=%g: B(R) = %g, closed form %g", beta, bR, want)
		}
	}
}

// Theorem 4.3's cut: R = S \ {0} on the DominantDiagonal game. The exact
// B(R) must reproduce the proof's value (m−1)/((mⁿ−1)(1+(m−1)e^{−β})).
func TestTheorem43CutMatchesClosedForm(t *testing.T) {
	n, m := 3, 2
	g, err := game.NewDominantDiagonal(n, m)
	if err != nil {
		t.Fatal(err)
	}
	beta := Theorem43BetaThreshold(n, m) + 2
	d, err := logit.New(g, beta)
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Space()
	mask, err := ComplementOfState(sp.Size(), sp.Encode([]int{0, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	lower, bR, err := BottleneckBound(d, mask, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	mn := math.Pow(float64(m), float64(n))
	want := (float64(m) - 1) / ((mn - 1) * (1 + (float64(m)-1)*math.Exp(-beta)))
	if math.Abs(bR-want) > 1e-10 {
		t.Fatalf("B(R) = %g, proof value %g", bR, want)
	}
	// And the implied bound must dominate the closed-form Theorem 4.3
	// statement (which drops the e^{−β} slack).
	if closed := Theorem43Lower(n, m); lower < closed-1e-9 {
		t.Errorf("exact bound %g below closed form %g", lower, closed)
	}
	res, err := ExactMixingTimePar(d, DefaultEps, 1<<50, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.MixingTime) < lower-1 {
		t.Errorf("measured t_mix %d below exact bottleneck bound %g", res.MixingTime, lower)
	}
}

func TestBottleneckBoundRejectsBigSets(t *testing.T) {
	dw, _ := game.NewDoubleWell(4, 2, 1)
	d, _ := logit.New(dw, 1)
	all := make([]bool, d.Space().Size())
	for i := range all {
		all[i] = true
	}
	if _, _, err := BottleneckBound(d, all, DefaultEps); err == nil {
		t.Fatal("π(R) > 1/2 must be rejected")
	}
}

func TestBestWeightCutFindsBarrier(t *testing.T) {
	// On a symmetric double well with barrier at c, the best cut should sit
	// at the barrier.
	n, c := 6, 3
	dw, _ := game.NewDoubleWell(n, c, 1.5)
	d, _ := logit.New(dw, 3)
	_, thr, err := BestWeightCut(d, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if thr != c {
		t.Errorf("best threshold %d, want the barrier %d", thr, c)
	}
}

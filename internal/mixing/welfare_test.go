package mixing

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

func TestSocialWelfareCoordination(t *testing.T) {
	g, _ := game.NewCoordination2x2(3, 2, 0, 0)
	if sw := SocialWelfare(g, []int{0, 0}); sw != 6 {
		t.Errorf("SW(0,0) = %g, want 6", sw)
	}
	if sw := SocialWelfare(g, []int{0, 1}); sw != 0 {
		t.Errorf("SW(0,1) = %g, want 0", sw)
	}
}

func TestStationaryWelfareLimits(t *testing.T) {
	// β = 0: uniform over the 4 profiles → E[SW] = (6+2·0+4)/4 = 2.5.
	g, _ := game.NewCoordination2x2(3, 2, 0, 0)
	d0, _ := logit.New(g, 0)
	rep, err := StationaryWelfarePar(d0, nil, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Expected-2.5) > 1e-12 {
		t.Errorf("β=0 expected welfare %g, want 2.5", rep.Expected)
	}
	if rep.Optimum != 6 {
		t.Errorf("optimum %g, want 6", rep.Optimum)
	}
	if rep.OptProfile[0] != 0 || rep.OptProfile[1] != 0 {
		t.Errorf("optimal profile %v", rep.OptProfile)
	}
	// Worst Nash is (1,1) with SW = 4.
	if rep.WorstNash != 4 {
		t.Errorf("worst Nash %g, want 4", rep.WorstNash)
	}
	// Large β: the Gibbs measure sits on the potential minimizer (0,0),
	// which here is also the welfare optimum.
	dInf, _ := logit.New(g, 25)
	repInf, err := StationaryWelfarePar(dInf, nil, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(repInf.Expected-6) > 1e-4 {
		t.Errorf("β=25 expected welfare %g, want ≈6", repInf.Expected)
	}
}

func TestStationaryWelfareMonotoneInBetaForAlignedGame(t *testing.T) {
	// When the potential minimizer is also the welfare optimum (δ0 > δ1
	// coordination on a ring), higher rationality can only help on average.
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	g, _ := game.NewGraphical(graph.Ring(4), base)
	prev := math.Inf(-1)
	for _, beta := range []float64{0, 0.5, 1, 2, 4} {
		d, _ := logit.New(g, beta)
		rep, err := StationaryWelfarePar(d, nil, linalg.Serial)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Expected < prev-1e-9 {
			t.Fatalf("expected welfare decreased at β=%g: %g after %g", beta, rep.Expected, prev)
		}
		prev = rep.Expected
	}
}

func TestStationaryWelfareNoNash(t *testing.T) {
	// Matching pennies: no pure Nash → WorstNash is NaN; expected welfare
	// of the zero-sum game is 0 under any distribution.
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
	d, _ := logit.New(g, 0.7)
	rep, err := StationaryWelfarePar(d, nil, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(rep.WorstNash) {
		t.Error("WorstNash must be NaN without pure Nash equilibria")
	}
	if math.Abs(rep.Expected) > 1e-12 {
		t.Errorf("zero-sum expected welfare %g, want 0", rep.Expected)
	}
}

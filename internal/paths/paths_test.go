package paths

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/spectral"
)

func TestPathValidate(t *testing.T) {
	sp := game.NewSpace([]int{2, 2})
	ok := Path{0, 1, 3}
	if err := ok.Validate(sp); err != nil {
		t.Error(err)
	}
	cases := map[string]Path{
		"empty":        {},
		"out-of-range": {0, 5},
		"jump":         {0, 3}, // Hamming distance 2
		"self-step":    {0, 0},
	}
	for name, p := range cases {
		if err := p.Validate(sp); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestSetAddDuplicate(t *testing.T) {
	sp := game.NewSpace([]int{2, 2})
	s := NewSet(sp)
	if err := s.Add(Path{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Path{0, 2, 3, 1}); err == nil {
		t.Fatal("duplicate (from,to) pair must be rejected")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Get(0, 1); !ok {
		t.Fatal("stored path not found")
	}
}

func TestBitFixingCoversAllPairs(t *testing.T) {
	sp := game.NewSpace([]int{2, 3, 2})
	s, err := BitFixing(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := sp.Size()
	if want := size * (size - 1); s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	// Each path has length equal to the Hamming distance of its endpoints.
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if x == y {
				continue
			}
			p, ok := s.Get(x, y)
			if !ok {
				t.Fatalf("missing path %d→%d", x, y)
			}
			if len(p)-1 != sp.Hamming(x, y) {
				t.Fatalf("path %d→%d has %d edges, want Hamming %d", x, y, len(p)-1, sp.Hamming(x, y))
			}
		}
	}
}

func TestBitFixingValidatesOrder(t *testing.T) {
	sp := game.NewSpace([]int{2, 2})
	if _, err := BitFixing(sp, []int{0}); err == nil {
		t.Error("short order must be rejected")
	}
	if _, err := BitFixing(sp, []int{0, 0}); err == nil {
		t.Error("non-permutation must be rejected")
	}
}

func TestGamma5RequiresTwoStrategies(t *testing.T) {
	sp := game.NewSpace([]int{3, 2})
	if _, err := Gamma5(sp, []int{0, 1}); err == nil {
		t.Fatal("3-strategy space must be rejected")
	}
}

// Theorem 2.6: for every chain and every valid path set, 1/(1−λ₂) <= ρ.
func TestTheorem26CongestionBoundsRelaxation(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	ringGame, _ := game.NewGraphical(graph.Ring(4), base)
	dw, _ := game.NewDoubleWell(5, 2, 1)
	for name, g := range map[string]game.Game{
		"coordination": base,
		"ring4":        ringGame,
		"double-well":  dw,
	} {
		for _, beta := range []float64{0.3, 1, 2} {
			d, err := logit.New(g, beta)
			if err != nil {
				t.Fatal(err)
			}
			s, err := BitFixing(d.Space(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pi, err := d.StationaryPar(linalg.ParallelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			p := d.TransitionDensePar(linalg.ParallelConfig{})
			rho, err := s.Congestion(p, pi)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := spectral.Decompose(p, pi)
			if err != nil {
				t.Fatal(err)
			}
			relax := 1 / (1 - dec.Values[1])
			if relax > rho*(1+1e-9) {
				t.Errorf("%s β=%g: 1/(1−λ2) = %g exceeds congestion ρ = %g (Thm 2.6 violated)",
					name, beta, relax, rho)
			}
		}
	}
}

// Lemma 5.4: ρ(Γℓ) <= 2n²·e^{βχ(ℓ)(δ0+δ1)} for graphical coordination games.
func TestLemma54CongestionBound(t *testing.T) {
	base, _ := game.NewCoordination2x2(1.5, 1, 0, 0)
	for _, tc := range []struct {
		name string
		soc  *graph.Graph
	}{
		{"ring6", graph.Ring(6)},
		{"path6", graph.Path(6)},
		{"clique5", graph.Clique(5)},
		{"star5", graph.Star(5)},
	} {
		g, err := game.NewGraphical(tc.soc, base)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.soc.N()
		_, ell, err := graph.ExactCutwidth(tc.soc)
		if err != nil {
			t.Fatal(err)
		}
		chi := graph.CutwidthOfOrdering(tc.soc, ell)
		for _, beta := range []float64{0.25, 0.5, 1} {
			d, err := logit.New(g, beta)
			if err != nil {
				t.Fatal(err)
			}
			rho, err := CongestionForOrdering(d, ell)
			if err != nil {
				t.Fatal(err)
			}
			bound := 2 * float64(n*n) * math.Exp(beta*float64(chi)*(base.Delta0()+base.Delta1()))
			if rho > bound*(1+1e-9) {
				t.Errorf("%s β=%g: ρ(Γℓ) = %g exceeds Lemma 5.4 bound %g (χ(ℓ)=%d)",
					tc.name, beta, rho, bound, chi)
			}
		}
	}
}

// The Γℓ relaxation route must be consistent with the Theorem 5.1 mixing
// bound pipeline end to end.
func TestGamma5FeedsTheorem51(t *testing.T) {
	base, _ := game.NewCoordination2x2(1.5, 1, 0, 0)
	soc := graph.Ring(5)
	g, _ := game.NewGraphical(soc, base)
	beta := 0.5
	d, _ := logit.New(g, beta)
	chi, ell, err := graph.ExactCutwidth(soc)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := CongestionForOrdering(d, ell)
	if err != nil {
		t.Fatal(err)
	}
	// The full Theorem 5.1 mixing bound dominates ρ·log(1/(ε·π_min)) by
	// construction; check the measured mixing time sits under the bound.
	res, err := mixing.ExactMixingTimePar(d, 0.25, 1<<40, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bound := mixing.Theorem51Upper(soc.N(), chi, beta, base.Delta0(), base.Delta1())
	if float64(res.MixingTime) > bound {
		t.Errorf("t_mix %d exceeds Thm 5.1 bound %g", res.MixingTime, bound)
	}
	if rho <= 0 {
		t.Error("congestion must be positive")
	}
}

func TestCongestionSizeMismatch(t *testing.T) {
	sp := game.NewSpace([]int{2, 2})
	s := NewSet(sp)
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	d, _ := logit.New(base, 1)
	pi, _ := d.StationaryPar(linalg.ParallelConfig{})
	small := game.NewSpace([]int{2})
	s2 := NewSet(small)
	if _, err := s2.Congestion(d.TransitionDensePar(linalg.ParallelConfig{}), pi); err == nil {
		t.Error("size mismatch must error")
	}
	_ = s
}

func TestSpectralGapLowerFromCongestion(t *testing.T) {
	if SpectralGapLowerFromCongestion(0) != 0 {
		t.Error("zero congestion edge case")
	}
	if got := SpectralGapLowerFromCongestion(4); got != 0.25 {
		t.Errorf("gap lower = %g", got)
	}
}

package game

import (
	"math"
	"testing"

	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
)

func TestCoordination2x2Validation(t *testing.T) {
	if _, err := NewCoordination2x2(1, 1, 1, 1); err == nil {
		t.Fatal("δ0 = 0 must be rejected")
	}
	if _, err := NewCoordination2x2(0, 2, 0, 1); err == nil {
		t.Fatal("δ0 < 0 must be rejected")
	}
	g, err := NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Delta0() != 3 || g.Delta1() != 2 {
		t.Fatalf("δ0=%g δ1=%g", g.Delta0(), g.Delta1())
	}
}

func TestCoordination2x2RiskDominance(t *testing.T) {
	g, _ := NewCoordination2x2(3, 2, 0, 0)
	if g.RiskDominant() != 0 {
		t.Error("δ0 > δ1 makes (0,0) risk dominant")
	}
	g, _ = NewCoordination2x2(2, 3, 0, 0)
	if g.RiskDominant() != 1 {
		t.Error("δ1 > δ0 makes (1,1) risk dominant")
	}
	g, _ = NewCoordination2x2(2, 2, 0, 0)
	if g.RiskDominant() != -1 {
		t.Error("δ0 = δ1 has no risk-dominant equilibrium")
	}
}

func TestCoordination2x2PayoffsAndPhi(t *testing.T) {
	g, _ := NewCoordination2x2(3, 2, 0.5, 1) // a=3 b=2 c=0.5 d=1
	cases := []struct {
		x      []int
		u0, u1 float64
		phi    float64
	}{
		{[]int{0, 0}, 3, 3, -(3 - 1)},
		{[]int{1, 1}, 2, 2, -(2 - 0.5)},
		{[]int{0, 1}, 0.5, 1, 0},
		{[]int{1, 0}, 1, 0.5, 0},
	}
	for _, c := range cases {
		if u := g.Utility(0, c.x); u != c.u0 {
			t.Errorf("u0%v = %g, want %g", c.x, u, c.u0)
		}
		if u := g.Utility(1, c.x); u != c.u1 {
			t.Errorf("u1%v = %g, want %g", c.x, u, c.u1)
		}
		if p := g.Phi(c.x); p != c.phi {
			t.Errorf("Phi%v = %g, want %g", c.x, p, c.phi)
		}
	}
}

func TestGraphicalUtilitySumsOverNeighbors(t *testing.T) {
	base, _ := NewCoordination2x2(3, 2, 0, 0)
	g, err := NewGraphical(graph.Star(4), base)
	if err != nil {
		t.Fatal(err)
	}
	// Center (0) plays 0; leaves play 0, 1, 1.
	x := []int{0, 0, 1, 1}
	// Center earns a for the agreeing leaf and c=0 for the two others.
	if u := g.Utility(0, x); u != 3 {
		t.Errorf("center utility = %g, want 3", u)
	}
	// Leaf 2 (playing 1 vs center 0) earns d = 0.
	if u := g.Utility(2, x); u != 0 {
		t.Errorf("leaf utility = %g, want 0", u)
	}
	// Potential: one (0,0) edge contributes −δ0, two mixed edges 0.
	if p := g.Phi(x); p != -3 {
		t.Errorf("Phi = %g, want -3", p)
	}
}

func TestGraphicalAllSameProfilesAreNash(t *testing.T) {
	base, _ := NewCoordination2x2(3, 2, 0, 0)
	for _, soc := range []*graph.Graph{graph.Ring(5), graph.Clique(4), graph.Grid(2, 3)} {
		g, err := NewGraphical(soc, base)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Players()
		zeros, ones := make([]int, n), make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		if !IsPureNash(g, zeros, 1e-12) {
			t.Errorf("%v: all-0 must be Nash", soc)
		}
		if !IsPureNash(g, ones, 1e-12) {
			t.Errorf("%v: all-1 must be Nash", soc)
		}
	}
}

func TestNewIsing(t *testing.T) {
	g, err := NewIsing(graph.Ring(4), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Base().RiskDominant() != -1 {
		t.Error("Ising game must have no risk-dominant equilibrium")
	}
	if _, err := NewIsing(graph.Ring(4), 0); err == nil {
		t.Error("zero coupling must be rejected")
	}
	if err := VerifyPotential(g, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestCliquePhiByOnes(t *testing.T) {
	base, _ := NewCoordination2x2(3, 2, 0, 0)
	n := 5
	g, _ := NewGraphical(graph.Clique(n), base)
	x := make([]int, n)
	for k := 0; k <= n; k++ {
		for i := range x {
			x[i] = 0
			if i < k {
				x[i] = 1
			}
		}
		want := g.Phi(x)
		if got := CliquePhiByOnes(n, k, base); math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d: CliquePhiByOnes=%g, direct Phi=%g", k, got, want)
		}
	}
}

func TestCliqueCriticalOnesIsArgmax(t *testing.T) {
	for _, base := range []Coordination2x2{
		{A: 3, B: 2, C: 0, D: 0},
		{A: 2, B: 2, C: 0, D: 0},
		{A: 5, B: 1, C: 0, D: 0},
	} {
		for n := 3; n <= 12; n++ {
			kStar := CliqueCriticalOnes(n, base)
			best := math.Inf(-1)
			argmax := -1
			for k := 0; k <= n; k++ {
				if p := CliquePhiByOnes(n, k, base); p > best {
					best, argmax = p, k
				}
			}
			if got := CliquePhiByOnes(n, kStar, base); math.Abs(got-best) > 1e-12 {
				t.Errorf("n=%d δ0=%g δ1=%g: k*=%d gives Φ=%g, argmax %d gives %g",
					n, base.Delta0(), base.Delta1(), kStar, got, argmax, best)
			}
		}
	}
}

func TestDoubleWellShape(t *testing.T) {
	n, c, l := 8, 3, 2.0
	dw, err := NewDoubleWell(n, c, l)
	if err != nil {
		t.Fatal(err)
	}
	// Wells at w=0 and w >= 2c at depth −c·l; barrier 0 at w=c.
	if p := dw.WeightPhi(0); p != -float64(c)*l {
		t.Errorf("Phi(w=0) = %g, want %g", p, -float64(c)*l)
	}
	if p := dw.WeightPhi(c); p != 0 {
		t.Errorf("Phi(w=c) = %g, want 0", p)
	}
	if p := dw.WeightPhi(2 * c); p != -float64(c)*l {
		t.Errorf("Phi(w=2c) = %g, want %g", p, -float64(c)*l)
	}
	if p := dw.WeightPhi(n); p != -float64(c)*l {
		t.Errorf("Phi(w=n) = %g, want flat floor beyond 2c", p)
	}
	// Maximum local variation is l.
	maxStep := 0.0
	for w := 0; w < n; w++ {
		if d := math.Abs(dw.WeightPhi(w+1) - dw.WeightPhi(w)); d > maxStep {
			maxStep = d
		}
	}
	if maxStep != l {
		t.Errorf("δΦ = %g, want %g", maxStep, l)
	}
}

func TestDoubleWellValidation(t *testing.T) {
	if _, err := NewDoubleWell(4, 3, 1); err == nil {
		t.Error("c > n/2 must be rejected")
	}
	if _, err := NewDoubleWell(4, 0, 1); err == nil {
		t.Error("c = 0 must be rejected")
	}
	if _, err := NewDoubleWell(4, 2, 0); err == nil {
		t.Error("l = 0 must be rejected")
	}
}

func TestAsymmetricDoubleWellShape(t *testing.T) {
	n, c := 6, 2
	deep, shallow := 4.0, 1.5
	g, err := NewAsymmetricDoubleWell(n, c, deep, shallow)
	if err != nil {
		t.Fatal(err)
	}
	if p := g.WeightPhi(0); p != -deep {
		t.Errorf("deep well = %g", p)
	}
	if p := g.WeightPhi(c); p != 0 {
		t.Errorf("barrier = %g", p)
	}
	if p := g.WeightPhi(n); p != -shallow {
		t.Errorf("shallow well = %g", p)
	}
	if _, err := NewAsymmetricDoubleWell(6, 2, 1, 2); err == nil {
		t.Error("shallow > deep must be rejected")
	}
	if _, err := NewAsymmetricDoubleWell(6, 6, 2, 1); err == nil {
		t.Error("c = n must be rejected")
	}
}

func TestDominantDiagonalUtilities(t *testing.T) {
	g, err := NewDominantDiagonal(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u := g.Utility(0, []int{0, 0, 0}); u != 0 {
		t.Errorf("u(0) = %g", u)
	}
	if u := g.Utility(1, []int{0, 1, 0}); u != -1 {
		t.Errorf("u(non-zero) = %g", u)
	}
	if _, err := NewDominantDiagonal(1, 2); err == nil {
		t.Error("n < 2 must be rejected")
	}
	if _, err := NewDominantDiagonal(2, 1); err == nil {
		t.Error("m < 2 must be rejected")
	}
}

func TestCongestionValidation(t *testing.T) {
	if _, err := NewCongestion(2, [][]float64{{1}}); err == nil {
		t.Error("short delay table must be rejected")
	}
	if _, err := NewCongestion(0, nil); err == nil {
		t.Error("zero players must be rejected")
	}
	if _, err := NewLinearCongestion(2, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("alpha/beta mismatch must be rejected")
	}
}

func TestCongestionLoadsAndRosenthal(t *testing.T) {
	// Two players, two identical linear resources d_r(ℓ) = ℓ.
	g, err := NewLinearCongestion(2, []float64{1, 1}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Both on resource 0: each pays delay 2.
	if u := g.Utility(0, []int{0, 0}); u != -2 {
		t.Errorf("shared-load utility = %g, want -2", u)
	}
	// Split: each pays 1.
	if u := g.Utility(0, []int{0, 1}); u != -1 {
		t.Errorf("split utility = %g, want -1", u)
	}
	// Rosenthal: both on 0 → 1+2 = 3; split → 1+1 = 2.
	if p := g.Phi([]int{0, 0}); p != 3 {
		t.Errorf("Phi(0,0) = %g, want 3", p)
	}
	if p := g.Phi([]int{0, 1}); p != 2 {
		t.Errorf("Phi(0,1) = %g, want 2", p)
	}
	// The split profiles are the potential minimizers and the pure Nash set.
	ne := PureNashEquilibriaPar(g, 1e-12, linalg.Serial)
	if len(ne) != 2 {
		t.Fatalf("NE = %v, want the two split profiles", ne)
	}
}

func TestWeightPotentialValidation(t *testing.T) {
	if _, err := NewWeightPotential(0, func(int) float64 { return 0 }); err == nil {
		t.Error("n = 0 must be rejected")
	}
	if _, err := NewWeightPotential(3, nil); err == nil {
		t.Error("nil f must be rejected")
	}
}

func TestNewRandomPotentialPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scale <= 0 did not panic")
		}
	}()
	NewRandomPotential([]int{2, 2}, 0, rng.New(1))
}

func TestGraphicalValidation(t *testing.T) {
	base, _ := NewCoordination2x2(3, 2, 0, 0)
	if _, err := NewGraphical(graph.NewBuilder(0).Graph(), base); err == nil {
		t.Error("empty social graph must be rejected")
	}
	if _, err := NewGraphical(graph.Ring(3), Coordination2x2{A: 1, B: 1, C: 1, D: 1}); err == nil {
		t.Error("degenerate base game must be rejected")
	}
}

package game

import (
	"testing"

	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
)

func mustCoordination(t *testing.T, a, b, c, d float64) Coordination2x2 {
	t.Helper()
	g, err := NewCoordination2x2(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBestResponsesCoordination(t *testing.T) {
	g := mustCoordination(t, 3, 2, 0, 0) // δ0=3, δ1=2
	// Against 0, best response is 0; against 1 it is 1.
	if br := BestResponses(g, 0, []int{1, 0}, 1e-12); len(br) != 1 || br[0] != 0 {
		t.Errorf("BR vs 0 = %v, want [0]", br)
	}
	if br := BestResponses(g, 0, []int{0, 1}, 1e-12); len(br) != 1 || br[0] != 1 {
		t.Errorf("BR vs 1 = %v, want [1]", br)
	}
}

func TestBestResponsesTies(t *testing.T) {
	// A game where both strategies pay the same.
	g := NewTableGame([]int{2, 2})
	if br := BestResponses(g, 0, []int{0, 0}, 1e-12); len(br) != 2 {
		t.Errorf("tied BR = %v, want both", br)
	}
}

func TestPureNashCoordination(t *testing.T) {
	g := mustCoordination(t, 3, 2, 0, 0)
	ne := PureNashEquilibria(g, 1e-12)
	sp := SpaceOf(g)
	want := map[int]bool{sp.Encode([]int{0, 0}): true, sp.Encode([]int{1, 1}): true}
	if len(ne) != 2 {
		t.Fatalf("NE = %v, want the two coordination profiles", ne)
	}
	for _, idx := range ne {
		if !want[idx] {
			t.Fatalf("unexpected NE index %d", idx)
		}
	}
}

func TestPureNashMatchingPennies(t *testing.T) {
	// Matching pennies has no pure Nash equilibrium.
	g := NewTableGame([]int{2, 2})
	sp := g.Space()
	for idx := 0; idx < sp.Size(); idx++ {
		x := sp.Decode(idx, nil)
		match := x[0] == x[1]
		if match {
			g.SetUtilityIndexed(0, idx, 1)
			g.SetUtilityIndexed(1, idx, -1)
		} else {
			g.SetUtilityIndexed(0, idx, -1)
			g.SetUtilityIndexed(1, idx, 1)
		}
	}
	if ne := PureNashEquilibria(g, 1e-12); len(ne) != 0 {
		t.Fatalf("matching pennies NE = %v, want none", ne)
	}
	// And it must not be a potential game.
	if _, ok := ReconstructPotential(g, 1e-9); ok {
		t.Fatal("matching pennies reconstructed a potential")
	}
}

func TestDominantStrategies(t *testing.T) {
	g, err := NewDominantDiagonal(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !IsDominantStrategyPar(g, i, 0, 1e-12, linalg.Serial) {
			t.Errorf("strategy 0 must be dominant for player %d", i)
		}
		if IsDominantStrategyPar(g, i, 1, 1e-12, linalg.Serial) {
			t.Errorf("strategy 1 must not be dominant for player %d", i)
		}
	}
	prof, ok := DominantProfile(g, 1e-12)
	if !ok {
		t.Fatal("dominant profile must exist")
	}
	for _, v := range prof {
		if v != 0 {
			t.Fatalf("dominant profile = %v, want all zeros", prof)
		}
	}
}

func TestDominantProfileAbsentInCoordination(t *testing.T) {
	g := mustCoordination(t, 3, 2, 0, 0)
	if _, ok := DominantProfile(g, 1e-12); ok {
		t.Fatal("coordination game has no dominant profile")
	}
}

func TestVerifyPotentialFamilies(t *testing.T) {
	ring := graph.Ring(4)
	gc, err := NewGraphical(ring, mustCoordination(t, 3, 2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDoubleWell(6, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	adw, err := NewAsymmetricDoubleWell(5, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := NewDominantDiagonal(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cong, err := NewLinearCongestion(3, []float64{1, 2}, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Potential
	}{
		{"coordination2x2", mustCoordination(t, 3, 2, 0, 0)},
		{"graphical-ring", gc},
		{"double-well", dw},
		{"asymmetric-well", adw},
		{"dominant-diagonal", dom},
		{"congestion", cong},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := VerifyPotential(c.p, 1e-9); err != nil {
				t.Fatal(err)
			}
			// Reconstruction must also succeed.
			if _, ok := ReconstructPotential(c.p, 1e-9); !ok {
				t.Fatal("reconstruction failed")
			}
		})
	}
}

func TestVerifyPotentialCatchesLies(t *testing.T) {
	// Install a wrong potential on a real game and check detection.
	base := mustCoordination(t, 3, 2, 0, 0)
	tg := Materialize(base)
	bad := make([]float64, tg.Space().Size())
	bad[0] = 42
	tg.SetPhiTable(bad)
	if err := VerifyPotential(tg, 1e-9); err == nil {
		t.Fatal("wrong potential passed verification")
	}
}

func TestReconstructPotentialMatchesDeclared(t *testing.T) {
	// For each declared-potential family the reconstructed potential must
	// equal the declared one up to an additive constant.
	dw, _ := NewDoubleWell(6, 3, 1)
	phi, ok := ReconstructPotential(dw, 1e-9)
	if !ok {
		t.Fatal("reconstruction failed")
	}
	sp := SpaceOf(dw)
	x := make([]int, sp.Players())
	sp.Decode(0, x)
	shift := dw.Phi(x) - phi[0]
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		if d := dw.Phi(x) - phi[idx] - shift; d > 1e-9 || d < -1e-9 {
			t.Fatalf("mismatch at %v: declared %g vs reconstructed %g (shift %g)",
				x, dw.Phi(x), phi[idx], shift)
		}
	}
}

package game

import (
	"testing"
	"testing/quick"

	"logitdyn/internal/rng"
)

func TestSpaceEncodeDecodeRoundTrip(t *testing.T) {
	sp := NewSpace([]int{2, 3, 2})
	if sp.Size() != 12 {
		t.Fatalf("Size = %d, want 12", sp.Size())
	}
	x := make([]int, 3)
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		if got := sp.Encode(x); got != idx {
			t.Fatalf("roundtrip %d -> %v -> %d", idx, x, got)
		}
	}
}

func TestSpaceDigitAndWithDigit(t *testing.T) {
	sp := NewSpace([]int{3, 4})
	x := []int{2, 3}
	idx := sp.Encode(x)
	if sp.Digit(idx, 0) != 2 || sp.Digit(idx, 1) != 3 {
		t.Fatalf("Digit mismatch at %v", x)
	}
	j := sp.WithDigit(idx, 0, 1)
	if sp.Digit(j, 0) != 1 || sp.Digit(j, 1) != 3 {
		t.Fatalf("WithDigit produced wrong profile")
	}
	// WithDigit to the same value is the identity.
	if sp.WithDigit(idx, 1, 3) != idx {
		t.Fatal("WithDigit same value must be identity")
	}
}

func TestSpaceStrideAndCheckProfile(t *testing.T) {
	sp := NewSpace([]int{3, 4, 2})
	x := []int{1, 2, 0}
	for i := range x {
		y := append([]int(nil), x...)
		y[i]++
		if got := sp.Encode(y) - sp.Encode(x); got != sp.Stride(i) {
			t.Fatalf("player %d: index step %d, Stride %d", i, got, sp.Stride(i))
		}
	}
	if err := sp.CheckProfile(x); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	for _, bad := range [][]int{{1, 2}, {1, 2, 0, 0}, {3, 0, 0}, {0, -1, 0}, {0, 0, 2}} {
		if sp.CheckProfile(bad) == nil {
			t.Errorf("CheckProfile(%v) = nil, want an error", bad)
		}
	}
}

func TestSpaceHamming(t *testing.T) {
	sp := NewSpace([]int{2, 2, 2})
	a := sp.Encode([]int{0, 0, 0})
	b := sp.Encode([]int{1, 0, 1})
	if d := sp.Hamming(a, b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if d := sp.Hamming(a, a); d != 0 {
		t.Fatalf("Hamming self = %d", d)
	}
}

func TestSpacePanics(t *testing.T) {
	sp := NewSpace([]int{2, 2})
	for name, f := range map[string]func(){
		"empty-sizes":     func() { NewSpace(nil) },
		"zero-strategies": func() { NewSpace([]int{2, 0}) },
		"encode-short":    func() { sp.Encode([]int{0}) },
		"encode-range":    func() { sp.Encode([]int{0, 2}) },
		"decode-range":    func() { sp.Decode(4, nil) },
		"decode-dst":      func() { sp.Decode(0, make([]int, 1)) },
		"withdigit-range": func() { sp.WithDigit(0, 0, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}

func TestSpaceMaxStrategies(t *testing.T) {
	if m := NewSpace([]int{2, 5, 3}).MaxStrategies(); m != 5 {
		t.Fatalf("MaxStrategies = %d", m)
	}
}

// Property: Encode is a bijection onto [0, Size).
func TestSpaceEncodeBijective(t *testing.T) {
	sp := NewSpace([]int{3, 2, 4})
	seen := make([]bool, sp.Size())
	x := make([]int, 3)
	for a := 0; a < 3; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 4; c++ {
				x[0], x[1], x[2] = a, b, c
				idx := sp.Encode(x)
				if seen[idx] {
					t.Fatalf("index %d hit twice", idx)
				}
				seen[idx] = true
			}
		}
	}
}

// Property: WithDigit changes exactly the requested digit.
func TestWithDigitProperty(t *testing.T) {
	sp := NewSpace([]int{3, 4, 2, 3})
	f := func(rawIdx uint16, rawPlayer, rawVal uint8) bool {
		idx := int(rawIdx) % sp.Size()
		i := int(rawPlayer) % sp.Players()
		v := int(rawVal) % sp.Strategies(i)
		j := sp.WithDigit(idx, i, v)
		for k := 0; k < sp.Players(); k++ {
			want := sp.Digit(idx, k)
			if k == i {
				want = v
			}
			if sp.Digit(j, k) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTableGameRoundTrip(t *testing.T) {
	g := NewTableGame([]int{2, 2})
	g.SetUtility(0, []int{1, 0}, 3.5)
	if got := g.Utility(0, []int{1, 0}); got != 3.5 {
		t.Fatalf("Utility = %v", got)
	}
	if got := g.Utility(1, []int{1, 0}); got != 0 {
		t.Fatalf("unset utility = %v, want 0", got)
	}
}

func TestMaterializePreservesUtilities(t *testing.T) {
	base, err := NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tg := Materialize(base)
	x := make([]int, 2)
	sp := tg.Space()
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		for i := 0; i < 2; i++ {
			if tg.Utility(i, x) != base.Utility(i, x) {
				t.Fatalf("utility mismatch at %v player %d", x, i)
			}
		}
		if tg.PhiIndexed(idx) != base.Phi(x) {
			t.Fatalf("phi mismatch at %v", x)
		}
	}
	if !tg.HasPhi() {
		t.Fatal("Materialize must tabulate the potential")
	}
}

func TestAsPotential(t *testing.T) {
	base, _ := NewCoordination2x2(3, 2, 0, 0)
	if _, ok := AsPotential(base); !ok {
		t.Error("coordination game must expose a potential")
	}
	// TableGame without an installed phi satisfies the interface
	// structurally but must be rejected.
	bare := NewTableGame([]int{2, 2})
	if _, ok := AsPotential(bare); ok {
		t.Error("bare TableGame must not claim a potential")
	}
	bare.SetPhiTable(make([]float64, 4))
	if _, ok := AsPotential(bare); !ok {
		t.Error("TableGame with phi must expose a potential")
	}
}

func TestTableGamePhiPanicsWithoutTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Phi without table did not panic")
		}
	}()
	NewTableGame([]int{2}).Phi([]int{0})
}

func TestSetPhiTableLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short phi table did not panic")
		}
	}()
	NewTableGame([]int{2, 2}).SetPhiTable(make([]float64, 3))
}

func TestRandomPotentialIsExactPotentialGame(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 5; trial++ {
		g := NewRandomPotential([]int{2, 3, 2}, 1.0, r)
		if err := VerifyPotential(g, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reconstruction must agree with the installed table up to a shift.
		phi, ok := ReconstructPotential(g, 1e-9)
		if !ok {
			t.Fatalf("trial %d: reconstruction failed on a potential game", trial)
		}
		shift := g.PhiIndexed(0) - phi[0]
		for idx := range phi {
			if d := g.PhiIndexed(idx) - phi[idx] - shift; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d: reconstructed potential differs at %d by %g", trial, idx, d)
			}
		}
	}
}

package mixing

import (
	"math"
	"testing"
	"testing/quick"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
)

// Property: for every weight potential, 0 <= ζ <= ΔΦ and δΦ <= ΔΦ.
func TestPropertyPotentialStatOrdering(t *testing.T) {
	f := func(vals [7]int8) bool {
		n := 6
		table := make([]float64, n+1)
		for w := range table {
			table[w] = float64(vals[w%len(vals)]) / 8
		}
		g, err := game.NewWeightPotential(n, func(w int) float64 { return table[w] })
		if err != nil {
			return false
		}
		st, err := AnalyzePotentialPar(g, linalg.Serial)
		if err != nil {
			return false
		}
		if st.Zeta < -1e-12 || st.Zeta > st.DeltaPhi+1e-12 {
			return false
		}
		return st.SmallDeltaPhi <= st.DeltaPhi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: ζ is invariant under shifting the potential and scales linearly
// with positive scalar multiplication.
func TestPropertyZetaAffineBehaviour(t *testing.T) {
	f := func(vals [7]int8, rawScale uint8, rawShift int8) bool {
		n := 6
		scale := 0.25 + float64(rawScale%16)/4 // 0.25 .. 4
		shift := float64(rawShift) / 4
		table := make([]float64, n+1)
		for w := range table {
			table[w] = float64(vals[w%len(vals)]) / 8
		}
		base, err := game.NewWeightPotential(n, func(w int) float64 { return table[w] })
		if err != nil {
			return false
		}
		mod, err := game.NewWeightPotential(n, func(w int) float64 { return scale*table[w] + shift })
		if err != nil {
			return false
		}
		stBase, err := AnalyzePotentialPar(base, linalg.Serial)
		if err != nil {
			return false
		}
		stMod, err := AnalyzePotentialPar(mod, linalg.Serial)
		if err != nil {
			return false
		}
		return math.Abs(stMod.Zeta-scale*stBase.Zeta) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the Theorem 3.4 bound is monotone in each of β, ΔΦ, n and m.
func TestPropertyTheorem34Monotone(t *testing.T) {
	f := func(rawBeta, rawDelta uint8) bool {
		beta := float64(rawBeta%30) / 10
		delta := float64(rawDelta%40) / 10
		b := Theorem34Upper(4, 2, beta, delta, 0.25)
		if Theorem34Upper(4, 2, beta+0.1, delta, 0.25) < b {
			return false
		}
		if Theorem34Upper(4, 2, beta, delta+0.1, 0.25) < b {
			return false
		}
		if Theorem34Upper(5, 2, beta, delta, 0.25) < b {
			return false
		}
		return Theorem34Upper(4, 3, beta, delta, 0.25) >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

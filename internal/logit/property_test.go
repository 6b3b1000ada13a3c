package logit

import (
	"math"
	"testing"
	"testing/quick"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

// Property: for ANY random potential game and any β in a reasonable range,
// the Gibbs measure is stationary and the chain is reversible. This is the
// fundamental identity (Eq. 4) the whole reproduction rests on, so it gets
// a randomized-universe check on top of the fixed-family tests.
func TestPropertyGibbsStationaryOnRandomPotentialGames(t *testing.T) {
	f := func(seed uint64, rawBeta uint8, shape uint8) bool {
		sizes := [][]int{{2, 2}, {3, 2}, {2, 2, 2}, {4, 3}}[int(shape)%4]
		g := game.NewRandomPotential(sizes, 2.0, rng.New(seed))
		beta := float64(rawBeta%40) / 10 // 0 .. 3.9
		d, err := New(g, beta)
		if err != nil {
			return false
		}
		pi, err := d.GibbsPar(linalg.Serial)
		if err != nil {
			return false
		}
		p := d.TransitionDensePar(linalg.ParallelConfig{})
		next := make([]float64, len(pi))
		p.VecMul(next, pi)
		if markov.TVDistance(pi, next) > 1e-11 {
			return false
		}
		return markov.CheckReversible(p, pi, 1e-11) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: update probabilities are a probability vector and, between two
// profiles differing only in OTHER players' strategies, depend only on the
// opponents (σ_i ignores player i's current strategy).
func TestPropertyUpdateIgnoresOwnStrategy(t *testing.T) {
	g, err := game.NewDominantDiagonal(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawIdx uint16, rawPlayer, rawAlt uint8) bool {
		sp := d.Space()
		idx := int(rawIdx) % sp.Size()
		i := int(rawPlayer) % sp.Players()
		alt := int(rawAlt) % sp.Strategies(i)
		x := sp.Decode(idx, nil)
		y := append([]int(nil), x...)
		y[i] = alt
		px := d.UpdateProbs(i, x, nil)
		py := d.UpdateProbs(i, y, nil)
		sum := 0.0
		for v := range px {
			if math.Abs(px[v]-py[v]) > 1e-12 {
				return false
			}
			sum += px[v]
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the Gibbs measure is invariant under adding a constant to the
// potential (only differences matter).
func TestPropertyGibbsShiftInvariant(t *testing.T) {
	f := func(seed uint64, rawShift int8) bool {
		shift := float64(rawShift) / 4
		gw, err := game.NewWeightPotential(4, func(w int) float64 {
			return math.Sin(float64(w)*float64(seed%7+1)) * 2
		})
		if err != nil {
			return false
		}
		shifted, err := game.NewWeightPotential(4, func(w int) float64 {
			return math.Sin(float64(w)*float64(seed%7+1))*2 + shift
		})
		if err != nil {
			return false
		}
		d1, _ := New(gw, 1.5)
		d2, _ := New(shifted, 1.5)
		pi1, err := d1.GibbsPar(linalg.Serial)
		if err != nil {
			return false
		}
		pi2, err := d2.GibbsPar(linalg.Serial)
		if err != nil {
			return false
		}
		return markov.TVDistance(pi1, pi2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

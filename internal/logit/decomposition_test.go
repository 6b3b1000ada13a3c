package logit

import (
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
)

// The Theorem 3.1 proof, executed: P must equal the average of the
// single-player matrices exactly.
func TestSinglePlayerDecompositionReconstructsP(t *testing.T) {
	games := map[string]game.Game{
		"coordination": coordination(t),
		"dominant":     mustDominant(t, 3, 3),
		"congestion":   mustCongestion(t),
	}
	for name, g := range games {
		for _, beta := range []float64{0, 0.7, 2} {
			d := mustDyn(t, g, beta)
			p := d.TransitionDensePar(linalg.ParallelConfig{})
			sum := d.SinglePlayerDecomposition()
			if diff := p.MaxAbsDiff(sum); diff > 1e-12 {
				t.Errorf("%s β=%g: P differs from the single-player average by %g", name, beta, diff)
			}
		}
	}
}

// Each single-player matrix must be PSD in the π-weighted inner product —
// the second half of the Theorem 3.1 proof.
func TestSinglePlayerMatricesPSD(t *testing.T) {
	ringGame, err := game.NewGraphical(graph.Ring(3), coordination(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]game.Game{
		"coordination": coordination(t),
		"ring3":        ringGame,
		"dominant":     mustDominant(t, 2, 3),
	} {
		for _, beta := range []float64{0.3, 1, 3} {
			d := mustDyn(t, g, beta)
			if err := d.CheckSinglePlayerPSD(1e-10); err != nil {
				t.Errorf("%s β=%g: %v", name, beta, err)
			}
		}
	}
}

// Rows of a single-player matrix on its line are identical — the proof's
// observation that P^{(i,z)}(x, ·) does not depend on x.
func TestSinglePlayerMatrixRowsConstantOnLine(t *testing.T) {
	d := mustDyn(t, coordination(t), 1)
	sp := d.Space()
	anchor := sp.Encode([]int{0, 1})
	m := d.SinglePlayerMatrix(0, anchor)
	r0 := sp.WithDigit(anchor, 0, 0)
	r1 := sp.WithDigit(anchor, 0, 1)
	for y := 0; y < sp.Size(); y++ {
		if m.At(r0, y) != m.At(r1, y) {
			t.Fatalf("rows differ at column %d: %g vs %g", y, m.At(r0, y), m.At(r1, y))
		}
	}
}

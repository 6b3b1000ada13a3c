package logit

import (
	"errors"
	"math"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
)

// Dynamics variants discussed in the paper's conclusions: the β → ∞
// best-response limit, the all-players-at-once parallel logit dynamics
// (whose β = ∞ special case, parallel best response, is the Nisan–Schapira–
// Zohar setting the conclusions cite), and annealing schedules where β
// grows over time as players learn the game.

// BestResponseStep performs one asynchronous best-response update in place:
// a uniformly random player switches to a best response (ties broken
// uniformly at random). This is the β → ∞ limit of the logit update. It
// returns the selected player and whether her strategy changed.
func (d *Dynamics) BestResponseStep(x []int, r *rng.RNG) (player int, changed bool) {
	i := r.Intn(d.space.Players())
	br := game.BestResponses(d.g, i, x, 1e-12)
	next := br[r.Intn(len(br))]
	changed = next != x[i]
	x[i] = next
	return i, changed
}

// BestResponseConverge runs asynchronous best response until no player can
// improve (a pure Nash equilibrium) or maxSteps elapse. For potential games
// convergence is guaranteed; the step count is returned. The scan after
// each update checks stability exactly rather than probabilistically, so
// termination does not depend on the random player sequence.
func (d *Dynamics) BestResponseConverge(x []int, r *rng.RNG, maxSteps int) (steps int, err error) {
	for s := 0; s <= maxSteps; s++ {
		if game.IsPureNash(d.g, x, 1e-12) {
			return s, nil
		}
		d.BestResponseStep(x, r)
	}
	return 0, errors.New("logit: best response did not reach a pure Nash equilibrium")
}

// ParallelStep performs one simultaneous logit update in place: every
// player draws her new strategy from σ_i(· | x) computed at the *current*
// profile, all updates applied at once. This is the synchronous variant the
// conclusions propose; unlike the asynchronous chain it can fail to be
// reversible and (at β = ∞) can cycle.
func (d *Dynamics) ParallelStep(x []int, r *rng.RNG) {
	n := d.space.Players()
	next := make([]int, n)
	var probs []float64
	for i := 0; i < n; i++ {
		probs = d.UpdateProbs(i, x, probs)
		next[i] = r.Categorical(probs)
	}
	copy(x, next)
}

// ParallelTransitionDense materializes the transition matrix of the
// simultaneous-update chain: since players update independently given the
// current profile, P(x, y) = Π_i σ_i(y_i | x). The matrix is fully dense
// (every profile reaches every profile in one step for β < ∞), so this is
// limited to small spaces; it makes the synchronous variant analyzable with
// the same Markov machinery as the paper's chain.
func (d *Dynamics) ParallelTransitionDense() *linalg.Dense {
	sp := d.space
	size := sp.Size()
	n := sp.Players()
	// Per-state update distributions: probs[x][i][v] = σ_i(v | x).
	probs := make([][][]float64, size)
	x := make([]int, n)
	for idx := 0; idx < size; idx++ {
		sp.Decode(idx, x)
		probs[idx] = make([][]float64, n)
		for i := 0; i < n; i++ {
			probs[idx][i] = d.UpdateProbs(i, x, nil)
		}
	}
	p := linalg.NewDense(size, size)
	linalg.ParallelConfig{}.For(size, func(lo, hi int) {
		y := make([]int, n)
		for from := lo; from < hi; from++ {
			row := p.Row(from)
			for to := 0; to < size; to++ {
				sp.Decode(to, y)
				prob := 1.0
				for i := 0; i < n; i++ {
					prob *= probs[from][i][y[i]]
					if prob == 0 {
						break
					}
				}
				row[to] = prob
			}
		}
	})
	return p
}

// ParallelTrajectory runs t parallel steps and returns per-profile visit
// counts (starting profile included).
func (d *Dynamics) ParallelTrajectory(start []int, t int, r *rng.RNG) []int64 {
	counts := make([]int64, d.space.Size())
	x := append([]int(nil), start...)
	counts[d.space.Encode(x)]++
	for s := 0; s < t; s++ {
		d.ParallelStep(x, r)
		counts[d.space.Encode(x)]++
	}
	return counts
}

// Schedule maps a step index to an inverse noise β(t) >= 0. The conclusions
// suggest dynamics "in which the value of β is not fixed, but varies
// according to some learning process"; AnnealedTrajectory implements that.
type Schedule func(step int) float64

// LinearSchedule grows β linearly from beta0 to beta1 over horizon steps
// and stays at beta1 afterwards.
func LinearSchedule(beta0, beta1 float64, horizon int) Schedule {
	return func(step int) float64 {
		if step >= horizon {
			return beta1
		}
		frac := float64(step) / float64(horizon)
		return beta0 + (beta1-beta0)*frac
	}
}

// LogSchedule grows β logarithmically: β(t) = rate·log(1+t), the classical
// simulated-annealing cooling shape.
func LogSchedule(rate float64) Schedule {
	return func(step int) float64 { return rate * math.Log1p(float64(step)) }
}

// AnnealedStep performs one logit update at the schedule's current β.
func (d *Dynamics) AnnealedStep(x []int, step int, sched Schedule, r *rng.RNG) error {
	beta := sched(step)
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return errors.New("logit: schedule produced an invalid β")
	}
	tmp := &Dynamics{g: d.g, beta: beta, space: d.space}
	tmp.Step(x, r)
	return nil
}

// AnnealedTrajectory runs t annealed steps and returns per-profile visit
// counts.
func (d *Dynamics) AnnealedTrajectory(start []int, t int, sched Schedule, r *rng.RNG) ([]int64, error) {
	counts := make([]int64, d.space.Size())
	x := append([]int(nil), start...)
	counts[d.space.Encode(x)]++
	for s := 0; s < t; s++ {
		if err := d.AnnealedStep(x, s, sched, r); err != nil {
			return nil, err
		}
		counts[d.space.Encode(x)]++
	}
	return counts, nil
}

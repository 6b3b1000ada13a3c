package mixing

import (
	"errors"
	"math"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
)

// Bottleneck-set machinery: the paper's lower bounds (Theorems 3.5, 3.9,
// 4.3 and 5.7) all instantiate Theorem 2.7 with a specific set R. These
// helpers build those sets for concrete games, evaluate B(R) exactly on the
// chain, and search weight-indexed cuts for the strongest bound.

// WeightMask returns the membership mask of R = {x : w(x) < threshold} for
// a two-strategy game, the cut used by Theorem 3.5 (with threshold = c).
func WeightMask(sp *game.Space, threshold int) ([]bool, error) {
	n := sp.Players()
	for i := 0; i < n; i++ {
		if sp.Strategies(i) != 2 {
			return nil, errors.New("mixing: WeightMask requires two strategies per player")
		}
	}
	mask := make([]bool, sp.Size())
	for idx := range mask {
		w := 0
		for i := 0; i < n; i++ {
			w += sp.Digit(idx, i)
		}
		mask[idx] = w < threshold
	}
	return mask, nil
}

// SingletonMask returns the mask of R = {state}, the Theorem 5.7 cut
// (R = {all-ones profile}).
func SingletonMask(size, state int) ([]bool, error) {
	if state < 0 || state >= size {
		return nil, errors.New("mixing: SingletonMask state out of range")
	}
	mask := make([]bool, size)
	mask[state] = true
	return mask, nil
}

// ComplementOfState returns the mask of R = S \ {state}, the Theorem 4.3
// cut (everything except the dominant profile).
func ComplementOfState(size, state int) ([]bool, error) {
	if state < 0 || state >= size {
		return nil, errors.New("mixing: ComplementOfState state out of range")
	}
	mask := make([]bool, size)
	for i := range mask {
		mask[i] = i != state
	}
	return mask, nil
}

// BottleneckBound evaluates the Theorem 2.7 lower bound for a concrete set:
// it computes π(R) and B(R) exactly on the chain and returns
// (1−2ε)/(2·B(R)), or an error if π(R) > 1/2 (the theorem's hypothesis).
func BottleneckBound(d *logit.Dynamics, mask []bool, eps float64) (lower float64, bR float64, err error) {
	par := linalg.ParallelConfig{}
	pi, err := d.StationaryPar(par)
	if err != nil {
		return 0, 0, err
	}
	piR := 0.0
	for x, in := range mask {
		if in {
			piR += pi[x]
		}
	}
	if piR > 0.5+1e-12 {
		return 0, 0, errors.New("mixing: bottleneck set has π(R) > 1/2")
	}
	p := d.TransitionDensePar(par)
	bR, err = markov.BottleneckRatio(p, pi, mask)
	if err != nil {
		return 0, 0, err
	}
	return markov.BottleneckLowerBound(bR, eps), bR, nil
}

// BestWeightCut scans every weight threshold 1..n for a two-strategy game,
// evaluates the Theorem 2.7 bound for each admissible cut (π(R) <= 1/2,
// trying both R and its complement), and returns the strongest lower bound
// with the threshold realizing it. This automates the paper's choice of
// bottleneck set for weight-indexed potentials.
func BestWeightCut(d *logit.Dynamics, eps float64) (lower float64, threshold int, err error) {
	sp := d.Space()
	n := sp.Players()
	par := linalg.ParallelConfig{}
	pi, err := d.StationaryPar(par)
	if err != nil {
		return 0, 0, err
	}
	p := d.TransitionDensePar(par)
	best := 0.0
	bestThr := -1
	for thr := 1; thr <= n; thr++ {
		mask, err := WeightMask(sp, thr)
		if err != nil {
			return 0, 0, err
		}
		for _, side := range []bool{false, true} {
			m := mask
			if side {
				m = make([]bool, len(mask))
				for i, in := range mask {
					m[i] = !in
				}
			}
			piR := 0.0
			for x, in := range m {
				if in {
					piR += pi[x]
				}
			}
			if piR <= 0 || piR > 0.5+1e-12 {
				continue
			}
			bR, err := markov.BottleneckRatio(p, pi, m)
			if err != nil {
				continue
			}
			if lb := markov.BottleneckLowerBound(bR, eps); lb > best && !math.IsInf(lb, 1) {
				best = lb
				bestThr = thr
			}
		}
	}
	if bestThr < 0 {
		return 0, 0, errors.New("mixing: no admissible weight cut")
	}
	return best, bestThr, nil
}

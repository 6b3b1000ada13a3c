package mixing

import (
	"errors"
	"math"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

// Stationary expected social welfare. The paper's own precursor work
// (reference [4], "Mixing time and stationary expected social welfare of
// logit dynamics", SAGT'10) pairs every mixing-time bound with the expected
// social welfare E_π[Σ_i u_i] at stationarity: once the chain has mixed,
// this is the long-run average welfare the system delivers. These helpers
// make that quantity computable for any game this repository builds.

// SocialWelfare returns SW(x) = Σ_i u_i(x).
func SocialWelfare(g game.Game, x []int) float64 {
	sw := 0.0
	for i := 0; i < g.Players(); i++ {
		sw += g.Utility(i, x)
	}
	return sw
}

// WelfareReport summarizes welfare at one β.
type WelfareReport struct {
	// Expected is E_π[SW] under the stationary distribution.
	Expected float64
	// Optimum is max_x SW(x) and OptProfile a maximizer.
	Optimum    float64
	OptProfile []int
	// WorstNash is the lowest welfare over pure Nash equilibria (NaN if
	// none exist); Expected/Optimum and WorstNash/Optimum are the
	// stationary counterparts of the price of anarchy/stability.
	WorstNash float64
}

// StationaryWelfarePar computes the welfare report for the logit dynamics
// of g at the dynamics' β under an explicit worker budget. The profile
// space must be materializable. A caller that already holds the stationary
// distribution passes it as pi; pi == nil computes it here. The
// expected-welfare sum reduces over fixed blocks and the optimum scan
// keeps the first maximizer in index order (blocks combine in block order,
// strict improvement wins), so the report — including the tie break on
// OptProfile — is bit-identical for every worker count.
func StationaryWelfarePar(d *logit.Dynamics, pi []float64, par linalg.ParallelConfig) (*WelfareReport, error) {
	if pi == nil {
		var err error
		pi, err = d.StationaryPar(par)
		if err != nil {
			return nil, err
		}
	}
	g := d.Game()
	sp := d.Space()
	if sp.Size() != len(pi) {
		return nil, errors.New("mixing: welfare size mismatch")
	}
	rep := &WelfareReport{WorstNash: math.NaN()}

	type blockBest struct {
		sw  float64
		idx int
	}
	size := sp.Size()
	blocks := welfareBlocks(size)
	bests := make([]blockBest, blocks)
	rep.Expected = par.BlockSum(size, func(lo, hi int) float64 {
		x := make([]int, sp.Players())
		b := blockBest{sw: math.Inf(-1), idx: -1}
		s := 0.0
		for idx := lo; idx < hi; idx++ {
			sp.Decode(idx, x)
			sw := SocialWelfare(g, x)
			s += pi[idx] * sw
			if sw > b.sw {
				b.sw = sw
				b.idx = idx
			}
		}
		bests[lo/linalg.ReduceBlock] = b
		return s
	})
	// Combine the per-block optima in block order with strict improvement:
	// exactly the serial loop's first-maximizer tie break.
	rep.Optimum = math.Inf(-1)
	optIdx := -1
	for _, b := range bests {
		if b.idx >= 0 && b.sw > rep.Optimum {
			rep.Optimum = b.sw
			optIdx = b.idx
		}
	}
	if optIdx >= 0 {
		rep.OptProfile = sp.Decode(optIdx, nil)
	}

	x := make([]int, sp.Players())
	for _, idx := range game.PureNashEquilibriaPar(g, 1e-12, par) {
		sp.Decode(idx, x)
		sw := SocialWelfare(g, x)
		if math.IsNaN(rep.WorstNash) || sw < rep.WorstNash {
			rep.WorstNash = sw
		}
	}
	return rep, nil
}

func welfareBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + linalg.ReduceBlock - 1) / linalg.ReduceBlock
}

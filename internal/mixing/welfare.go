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
// distribution passes it as pi; pi == nil computes it here. It scans for
// the pure Nash equilibria itself; a caller that holds them calls
// WelfareFromNash instead.
func StationaryWelfarePar(d *logit.Dynamics, pi []float64, par linalg.ParallelConfig) (*WelfareReport, error) {
	if pi == nil {
		var err error
		pi, err = d.StationaryPar(par)
		if err != nil {
			return nil, err
		}
	}
	return WelfareFromNash(d, pi, game.PureNashEquilibriaPar(d.Game(), 1e-12, par), par)
}

// WelfareFromNash is StationaryWelfarePar for a caller that holds both
// the stationary distribution pi and the pure Nash equilibria nash (by
// profile index, as PureNashEquilibriaPar lists them). The
// expected-welfare sum reduces over fixed blocks and the optimum scan
// keeps the first maximizer in index order (blocks combine in block order,
// strict improvement wins), so the report — including the tie break on
// OptProfile — is bit-identical for every worker count. A table game is
// read by profile index.
func WelfareFromNash(d *logit.Dynamics, pi []float64, nash []int, par linalg.ParallelConfig) (*WelfareReport, error) {
	g := d.Game()
	tab, _ := g.(*game.TableGame)
	sp := d.Space()
	if sp.Size() != len(pi) {
		return nil, errors.New("mixing: welfare size mismatch")
	}
	rep := &WelfareReport{WorstNash: math.NaN()}
	// welfare returns SW of the profile with index idx, decoding it into
	// x only when g is not a table.
	welfare := func(idx int, x []int) float64 {
		if tab == nil {
			return SocialWelfare(g, sp.Decode(idx, x))
		}
		sw := 0.0
		for i := 0; i < sp.Players(); i++ {
			sw += tab.UtilityIndexed(i, idx)
		}
		return sw
	}

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
			sw := welfare(idx, x)
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
	for _, idx := range nash {
		sw := welfare(idx, x)
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

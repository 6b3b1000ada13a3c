package bench

import (
	"fmt"

	"logitdyn/internal/coupling"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
	"logitdyn/internal/stats"
)

func init() {
	register(Experiment{ID: "E14", Title: "extension — three-route cross-validation of mixing measurements", Plan: planE14, Derive: deriveE14})
}

// e14Scenario is one cross-validation target: a game spec at one β, plus
// the seed index that pins its coupling-simulation RNG stream.
type e14Scenario struct {
	name    string
	segment string
	point   int
	base    spec.Spec
	beta    float64
	si      int
}

var (
	e14Coordination = spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}
	e14Ising        = spec.Spec{Game: "ising", Graph: "ring", N: 5, Delta1: 1}
	e14Dominant     = spec.Spec{Game: "dominant", N: 3, M: 2}
)

// e14Scenarios keeps the original experiment order (which the per-scenario
// RNG seeds are derived from) while grouping the grid points per family.
func e14Scenarios(cfg Config) []e14Scenario {
	scenarios := []e14Scenario{
		{"coordination", "coordination", 0, e14Coordination, 0.5, 0},
		{"coordination", "coordination", 1, e14Coordination, 1.5, 1},
		{"ring5-ising", "ising", 0, e14Ising, 0.5, 2},
		{"dominant", "dominant", 0, e14Dominant, 4, 3},
	}
	if !cfg.Quick {
		scenarios = append(scenarios,
			e14Scenario{"ring5-ising", "ising", 1, e14Ising, 1, 4},
			e14Scenario{"dominant", "dominant", 1, e14Dominant, 16, 5},
		)
	}
	return scenarios
}

// planE14 declares one segment per game family, each sweeping that
// family's scenario betas.
func planE14(cfg Config) ([]Segment, error) {
	betasBySegment := map[string][]float64{}
	baseBySegment := map[string]spec.Spec{}
	var order []string
	for _, sc := range e14Scenarios(cfg) {
		if _, ok := baseBySegment[sc.segment]; !ok {
			order = append(order, sc.segment)
			baseBySegment[sc.segment] = sc.base
		}
		betasBySegment[sc.segment] = append(betasBySegment[sc.segment], sc.beta)
	}
	var segs []Segment
	for _, name := range order {
		segs = append(segs, Segment{Name: name, Grid: grid(baseBySegment[name], betasBySegment[name], cfg.eps())})
	}
	return segs, nil
}

// deriveE14 measures the same mixing times by three independent routes —
// the sweep rows carry the spectral (exact) measurement, and the derive
// layer recomputes brute-force distribution evolution (exact) and
// maximal-coupling coalescence quantiles (simulation upper bound, Theorem
// 2.1). Spectral must equal evolution exactly, and the coupling estimate
// must upper-bound them. This validates the measurement infrastructure
// every other experiment relies on; the evolution and coupling routes are
// deliberately NOT cached analyses — they are the independent yardstick a
// warm store must still agree with.
func deriveE14(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E14", Title: "cross-validation of measurement routes",
		Columns: []string{"game", "beta", "tmix_spectral", "tmix_evolution", "coupling_q75", "coupling_CI95", "exact_agree", "coupling_dominates"}}
	eps := cfg.eps()
	trials := 300
	if cfg.Quick {
		trials = 120
	}
	allAgree, allDominate := true, true
	for _, sc := range e14Scenarios(cfg) {
		row, err := res.Row(sc.segment, sc.point)
		if err != nil {
			return nil, err
		}
		if !row.MixingTimeExact {
			return nil, fmt.Errorf("bench: E14 %s point is not an exact measurement", sc.name)
		}
		tmSpectral := row.MixingTime
		g, err := sc.base.Build()
		if err != nil {
			return nil, err
		}
		d, err := logit.New(g, sc.beta)
		if err != nil {
			return nil, err
		}
		evo, err := mixing.EvolutionMixingTimePar(d, eps, 1<<22, nil, linalg.ParallelConfig{})
		if err != nil {
			return nil, err
		}
		// Coupling: coalescence times from extreme starting pairs.
		sp := d.Space()
		n := sp.Players()
		lo := make([]int, n)
		hi := make([]int, n)
		for i := range hi {
			hi[i] = sp.Strategies(i) - 1
		}
		r := rng.New(cfg.Seed + uint64(sc.si)*1000)
		samples := make([]float64, trials)
		for k := 0; k < trials; k++ {
			tau, err := coupling.CoalescenceTime(d, lo, hi, r, 1<<40)
			if err != nil {
				return nil, err
			}
			samples[k] = float64(tau)
		}
		q75 := stats.Quantile(samples, 1-eps)
		ciLo, ciHi, err := stats.BootstrapQuantileCI(samples, 1-eps, 400, 0.05, r)
		if err != nil {
			return nil, err
		}
		agree := tmSpectral == evo
		// Theorem 2.1 bounds d(t) by the coalescence tail over the WORST
		// pair; our extreme pair is the worst for these monotone-ish games
		// up to sampling error — allow the CI's upper edge.
		dominates := ciHi >= float64(tmSpectral)
		allAgree = allAgree && agree
		allDominate = allDominate && dominates
		t.AddRow(sc.name, sc.beta, tmSpectral, evo, q75,
			formatFloat(ciLo)+" – "+formatFloat(ciHi), agree, dominates)
	}
	t.Note("spectral and evolution routes agree exactly on every chain: %v", allAgree)
	t.Note("coupling 75th-percentile estimate (Thm 2.1 upper bound) dominates the exact value within its 95%% CI: %v", allDominate)
	return t, nil
}

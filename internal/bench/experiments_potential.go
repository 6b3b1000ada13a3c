package bench

import (
	"fmt"
	"math"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
)

func init() {
	register(Experiment{ID: "E1", Title: "Theorem 3.1 — eigenvalues of potential-game logit chains are non-negative", Plan: planE1, Derive: deriveE1})
	register(Experiment{ID: "E2", Title: "Lemma 3.2 — relaxation time at β = 0 is at most n", Plan: planE2, Derive: deriveE2})
	register(Experiment{ID: "E3", Title: "Theorem 3.4 — all-β upper bound 2mn·e^{βΔΦ}(…)", Plan: planE3, Derive: deriveE3})
	register(Experiment{ID: "E4", Title: "Theorem 3.5 — double-well lower bound e^{βΔΦ(1−o(1))}", Plan: planE4, Derive: deriveE4})
	register(Experiment{ID: "E5", Title: "Theorem 3.6 — small β mixes in O(n log n)", Plan: planE5, Derive: deriveE5})
	register(Experiment{ID: "E6", Title: "Theorems 3.8/3.9 — large-β growth exponent is ζ, not ΔΦ", Plan: planE6, Derive: deriveE6})
}

// e1Trials lists E1's games: seed replicates of the random-potential
// family (their split seeds spelled out so the grid is declarative) plus
// the coordination and dominant families. The display shape (n, max m) is
// recorded per trial.
func e1Trials(cfg Config) []struct {
	name string
	base spec.Spec
	n, m int
} {
	type trial = struct {
		name string
		base spec.Spec
		n, m int
	}
	r := rng.New(cfg.Seed)
	var trials []trial
	sizes := [][]int{{2, 2}, {2, 2, 2}, {3, 3}}
	if !cfg.Quick {
		sizes = append(sizes, []int{2, 3, 2}, []int{2, 2, 2, 2})
	}
	for si, sz := range sizes {
		maxM := 0
		for _, m := range sz {
			if m > maxM {
				maxM = m
			}
		}
		trials = append(trials, trial{
			name: fmt.Sprintf("random-%d", si),
			base: spec.Spec{Game: "random", Sizes: sz, Scale: 2.0, Seed: r.SplitSeed(uint64(si))},
			n:    len(sz), m: maxM,
		})
	}
	trials = append(trials,
		trial{name: "coordination", base: spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, n: 2, m: 2},
		trial{name: "dominant", base: spec.Spec{Game: "dominant", N: 3, M: 3}, n: 3, m: 3},
	)
	return trials
}

var e1Betas = []float64{0, 0.5, 1, 2}

// planE1 declares one segment per trial game, all swept over the same β
// list.
func planE1(cfg Config) ([]Segment, error) {
	var segs []Segment
	for _, tr := range e1Trials(cfg) {
		segs = append(segs, Segment{Name: tr.name, Grid: grid(tr.base, e1Betas, cfg.eps())})
	}
	return segs, nil
}

// deriveE1 checks λ_min >= 0 across the trials. The spectrum is read off
// the rows: λ_min directly, and λ2 as λ* (they coincide exactly when the
// spectrum is non-negative, which is the theorem under test).
func deriveE1(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E1", Title: "eigenvalue non-negativity (Theorem 3.1)",
		Columns: []string{"game", "n", "m", "beta", "lambda_min", "lambda_2", "trel=1/(1-l2)", "nonneg"}}
	allNonneg := true
	for _, tr := range e1Trials(cfg) {
		for _, row := range res.Rows(tr.name) {
			lmin := float64(row.MinEigenvalue)
			l2 := float64(row.LambdaStar)
			nonneg := lmin >= -1e-9
			allNonneg = allNonneg && nonneg
			t.AddRow(tr.name, tr.n, tr.m, float64(row.Beta), lmin, l2, 1/(1-l2), nonneg)
		}
	}
	t.Note("Theorem 3.1 shape check (all eigenvalues >= 0, so t_rel = 1/(1−λ2)): %v", allNonneg)
	return t, nil
}

func e2Ns(cfg Config) []int {
	if cfg.Quick {
		return []int{2, 3, 4, 5}
	}
	return []int{2, 3, 4, 5, 6, 7, 8}
}

// planE2 sweeps n over the linear weight-potential family at β = 0.
func planE2(cfg Config) ([]Segment, error) {
	g := grid(spec.Spec{Game: "weightpot"}, []float64{0}, cfg.eps())
	g.Axes.N = e2Ns(cfg)
	return []Segment{{Name: "n", Grid: g}}, nil
}

// deriveE2 compares the measured t_rel against the Lemma 3.2 bound n.
func deriveE2(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E2", Title: "relaxation time at β=0 (Lemma 3.2)",
		Columns: []string{"n", "trel_measured", "bound_n", "under_bound"}}
	ok := true
	for _, row := range res.Rows("n") {
		trel := float64(row.RelaxationTime)
		under := trel <= float64(row.N)+1e-6
		ok = ok && under
		t.AddRow(row.N, trel, row.N, under)
	}
	t.Note("Lemma 3.2 shape check (t_rel <= n at β=0; the lazy walk attains it exactly): %v", ok)
	return t, nil
}

var e3Base = spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}

func e3Betas(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0, 0.5, 1, 2}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3}
}

// planE3 sweeps β on the fixed coordination game.
func planE3(cfg Config) ([]Segment, error) {
	return []Segment{{Name: "beta", Grid: grid(e3Base, e3Betas(cfg), cfg.eps())}}, nil
}

// deriveE3 compares measured t_mix with the Theorem 3.4 envelope (ΔΦ read
// from the rows) and fits the large-β growth slope.
func deriveE3(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E3", Title: "all-β upper bound (Theorem 3.4)",
		Columns: []string{"beta", "tmix_measured", "thm34_bound", "ratio", "under_bound"}}
	rows := res.Rows("beta")
	eps := cfg.eps()
	allUnder := true
	betas := make([]float64, len(rows))
	times := make([]float64, len(rows))
	var deltaPhi, zeta float64
	for i, row := range rows {
		beta := float64(row.Beta)
		tm := row.MixingTime
		deltaPhi, zeta = float64(row.DeltaPhi), float64(row.Zeta)
		bound := mixing.Theorem34Upper(2, 2, beta, deltaPhi, eps)
		under := float64(tm) <= bound
		allUnder = allUnder && under
		betas[i] = beta
		times[i] = math.Max(float64(tm), 1)
		t.AddRow(beta, tm, bound, float64(tm)/bound, under)
	}
	slope, err := mixing.GrowthExponent(betas[len(betas)/2:], times[len(times)/2:])
	if err != nil {
		return nil, err
	}
	t.Note("measured t_mix under the Theorem 3.4 bound at every β: %v", allUnder)
	t.Note("large-β growth slope of log t_mix: %.3f (Thm 3.4 permits at most ΔΦ = %.3f; Thm 3.8 predicts ζ = %.3f)",
		slope, deltaPhi, zeta)
	return t, nil
}

func e4Shape(cfg Config) (n, c int) {
	if cfg.Quick {
		return 6, 2
	}
	return 8, 3
}

func e4Betas(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{1, 2, 3}
	}
	return []float64{1, 2, 3, 4, 5, 6, 7, 8}
}

// planE4 sweeps β on the symmetric double well.
func planE4(cfg Config) ([]Segment, error) {
	n, c := e4Shape(cfg)
	base := spec.Spec{Game: "doublewell", N: n, C: c, Delta1: 1.0}
	return []Segment{{Name: "beta", Grid: grid(base, e4Betas(cfg), cfg.eps())}}, nil
}

// deriveE4 checks the Theorem 3.5 lower bound (ΔΦ and δΦ from the rows)
// and fits the asymptotic slope on the top half of the β grid.
func deriveE4(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E4", Title: "double-well lower bound (Theorem 3.5)",
		Columns: []string{"beta", "tmix_measured", "thm35_lower", "above_lower"}}
	n, _ := e4Shape(cfg)
	rows := res.Rows("beta")
	eps := cfg.eps()
	allAbove := true
	betas := make([]float64, len(rows))
	times := make([]float64, len(rows))
	var deltaPhi float64
	for i, row := range rows {
		beta := float64(row.Beta)
		tm := row.MixingTime
		deltaPhi = float64(row.DeltaPhi)
		lower := mixing.Theorem35Lower(n, 2, beta, deltaPhi, float64(row.SmallDeltaPhi), eps)
		above := float64(tm) >= lower
		allAbove = allAbove && above
		betas[i] = beta
		times[i] = math.Max(float64(tm), 1)
		t.AddRow(beta, tm, lower, above)
	}
	// Fit on the top half of the grid: the theorem's slope is asymptotic
	// in β and small-β points drag the estimate down.
	slope, err := mixing.GrowthExponent(betas[len(betas)/2:], times[len(times)/2:])
	if err != nil {
		return nil, err
	}
	t.Note("measured t_mix above the Theorem 3.5 lower bound at every β: %v", allAbove)
	t.Note("growth slope %.3f vs ΔΦ = %.3f (Thm 3.5 predicts slope → ΔΦ)", slope, deltaPhi)
	return t, nil
}

func e5Ns(cfg Config) []int {
	if cfg.Quick {
		return []int{3, 4, 5, 6}
	}
	return []int{3, 4, 5, 6, 7, 8, 9}
}

const e5Const = 0.5

// planE5 pairs each n with its own β = c/(n·δΦ): the axes are zipped, not
// crossed, so each n is its own one-point segment. δΦ comes from the
// game's potential statistics, computed at plan time (game construction,
// not chain analysis).
func planE5(cfg Config) ([]Segment, error) {
	var segs []Segment
	for _, n := range e5Ns(cfg) {
		dw, err := game.NewDoubleWell(n, n/2, 1.0)
		if err != nil {
			return nil, err
		}
		st, err := mixing.AnalyzePotentialPar(dw, linalg.Serial)
		if err != nil {
			return nil, err
		}
		beta := e5Const / (float64(n) * st.SmallDeltaPhi)
		base := spec.Spec{Game: "doublewell", N: n, C: n / 2, Delta1: 1.0}
		segs = append(segs, Segment{Name: fmt.Sprintf("n=%d", n), Grid: grid(base, []float64{beta}, cfg.eps())})
	}
	return segs, nil
}

// deriveE5 checks the O(n log n) small-β regime of Theorem 3.6.
func deriveE5(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E5", Title: "small-β fast mixing (Theorem 3.6)",
		Columns: []string{"n", "beta=c/(n dPhi)", "tmix_measured", "thm36_bound", "tmix/(n log n)", "under_bound"}}
	eps := cfg.eps()
	allUnder := true
	for _, n := range e5Ns(cfg) {
		row, err := res.Row(fmt.Sprintf("n=%d", n), 0)
		if err != nil {
			return nil, err
		}
		tm := row.MixingTime
		bound := mixing.Theorem36Upper(n, e5Const, eps)
		under := float64(tm) <= bound
		allUnder = allUnder && under
		t.AddRow(n, float64(row.Beta), tm, bound, float64(tm)/(float64(n)*math.Log(float64(n))), under)
	}
	t.Note("measured t_mix under the Theorem 3.6 bound at every n: %v", allUnder)
	t.Note("t_mix/(n log n) stays bounded as n grows (Θ(n log n) scaling)")
	return t, nil
}

func e6N(cfg Config) int {
	if cfg.Quick {
		return 5
	}
	return 7
}

func e6Betas(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{2, 4, 6}
	}
	return []float64{2, 3, 4, 5, 6, 8, 10, 12}
}

// planE6 sweeps β on the asymmetric double well (ζ < ΔΦ).
func planE6(cfg Config) ([]Segment, error) {
	base := spec.Spec{Game: "asymwell", N: e6N(cfg), C: 2, Depth: 3.0, Shallow: 1.0}
	return []Segment{{Name: "beta", Grid: grid(base, e6Betas(cfg), cfg.eps())}}, nil
}

// deriveE6 demonstrates that the large-β exponent is ζ, not ΔΦ.
func deriveE6(cfg Config, res *Results) (*Table, error) {
	t := &Table{ID: "E6", Title: "large-β exponent is ζ (Theorems 3.8/3.9)",
		Columns: []string{"beta", "tmix_measured", "thm38_upper", "thm39_lower(|dR|=m^n)", "within"}}
	n := e6N(cfg)
	rows := res.Rows("beta")
	eps := cfg.eps()
	allWithin := true
	betas := make([]float64, len(rows))
	times := make([]float64, len(rows))
	var deltaPhi, zeta float64
	for i, row := range rows {
		beta := float64(row.Beta)
		tm := row.MixingTime
		deltaPhi, zeta = float64(row.DeltaPhi), float64(row.Zeta)
		upper := mixing.Theorem38Upper(n, 2, beta, zeta, deltaPhi, eps)
		lower := mixing.Theorem39Lower(2, math.Pow(2, float64(n)), beta, zeta, eps)
		within := float64(tm) <= upper && float64(tm) >= lower
		allWithin = allWithin && within
		betas[i] = beta
		times[i] = math.Max(float64(tm), 1)
		t.AddRow(beta, tm, upper, lower, within)
	}
	slope, err := mixing.GrowthExponent(betas[len(betas)/2:], times[len(times)/2:])
	if err != nil {
		return nil, err
	}
	t.Note("ζ = %.3f, ΔΦ = %.3f: fitted slope %.3f tracks ζ (Thm 3.8/3.9), not ΔΦ", zeta, deltaPhi, slope)
	t.Note("measured t_mix inside the [Thm 3.9, Thm 3.8] envelope at every β: %v", allWithin)
	return t, nil
}

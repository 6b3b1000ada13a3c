package mixing

import (
	"fmt"
	"math"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
	"logitdyn/internal/spectral"
)

// DefaultEps is the paper's convention t_mix = t_mix(1/4).
const DefaultEps = 0.25

// Result bundles the spectral measurements for one (game, β) pair.
type Result struct {
	Beta float64
	// Backend names the linear-algebra backend that produced the result
	// (dense, sparse or matfree).
	Backend logit.Backend
	// Exact reports whether MixingTime is the exact t_mix(ε). On the
	// Lanczos (sparse/matfree) route it is false and the Theorem 2.3
	// sandwich [SpectralLower, SpectralUpper] is the mixing-time answer.
	Exact          bool
	MixingTime     int64
	RelaxationTime float64
	LambdaStar     float64
	MinEigenvalue  float64
	// SpectralLower/SpectralUpper are the Theorem 2.3 sandwich at ε.
	SpectralLower, SpectralUpper float64
	// LanczosIterations is the Krylov dimension used (0 on the dense path).
	LanczosIterations int
	// Converged reports whether the spectral estimates are trustworthy:
	// always true on the dense path; on the Lanczos path it is false when
	// the iteration cap ran out before the Ritz values stabilized, in
	// which case λ* (and the sandwich derived from it) are lower bounds.
	Converged bool
	// Stationary is the stationary distribution π the measurement used:
	// the Gibbs measure of a potential game, or the dense null-space solve
	// when the dense route measures a game without a potential.
	Stationary []float64
}

// maxEvolutionSteps caps the evolution fallback of ExactMixingTimePar:
// the brute-force sweep is O(t·|S|·nnz), so past 2^20 steps it stops
// whatever maxT allows.
const maxEvolutionSteps = 1 << 20

// ExactMixingTimePar is the whole dense exact route: it measures t_mix(eps)
// of the logit chain of d, capped at maxT, from one transition build. The
// CSR chain is expanded once into the dense P; π is the Gibbs measure, or
// the direct null-space solve of P when the game has no potential; then
// (P, π) is decomposed. With a decomposition the result carries the exact
// t_mix from d(t) and the Theorem 2.3 sandwich, and a t_mix above maxT is
// the answer: d(t) is non-increasing, so no evolution capped at maxT could
// mix sooner. Only a chain without a decomposition — not reversible, π
// underflowed to zero somewhere, or the eigensolver failed — is measured
// by evolving every start on the same CSR chain, capped at min(maxT,
// 2^20) steps, with the spectral fields set to NaN. Result.Stationary is
// π either way.
//
// The transition build, the d(t) sweep and the evolution fan out at most
// par.Workers goroutines, so a serving layer's token pool governs the
// dense route the same way it governs the Lanczos route. The budget never
// changes any reported number — the matrix rows are filled at fixed
// positions, the worst-start TV distance is an exact max-merge and each
// start evolves serially in its own slot.
func ExactMixingTimePar(d *logit.Dynamics, eps float64, maxT int64, par linalg.ParallelConfig) (*Result, error) {
	csr := d.TransitionCSRPar(par)
	p := csr.Dense()
	pi, err := d.GibbsPar(par)
	if err != nil {
		if pi, err = markov.StationaryDirect(p); err != nil {
			return nil, err
		}
	}
	dec, decErr := spectral.Decompose(p, pi)
	if decErr != nil {
		tm, err := evolve(csr, pi, eps, min(maxT, maxEvolutionSteps), par)
		if err != nil {
			return nil, fmt.Errorf("mixing: spectral route failed (%v) and evolution fallback failed (%v)", decErr, err)
		}
		nan := math.NaN()
		return &Result{
			Beta:           d.Beta(),
			Backend:        logit.BackendDense,
			Exact:          true,
			Converged:      true,
			MixingTime:     tm,
			RelaxationTime: nan,
			LambdaStar:     nan,
			MinEigenvalue:  nan,
			SpectralLower:  nan,
			SpectralUpper:  nan,
			Stationary:     pi,
		}, nil
	}
	tm, err := dec.WithParallel(par).MixingTime(eps, maxT)
	if err != nil {
		return nil, err
	}
	res := decompositionResult(d, dec, eps)
	res.Exact = true
	res.MixingTime = tm
	return res, nil
}

// decompositionResult fills a dense Result's spectral fields — λ*, λ_min,
// t_rel and the Theorem 2.3 sandwich at eps — and π from dec.
func decompositionResult(d *logit.Dynamics, dec *spectral.Decomposition, eps float64) *Result {
	lo, hi := dec.MixingTimeBoundsFromRelaxation(eps)
	return &Result{
		Beta:           d.Beta(),
		Backend:        logit.BackendDense,
		Converged:      true,
		RelaxationTime: dec.RelaxationTime(),
		LambdaStar:     dec.LambdaStar(),
		MinEigenvalue:  dec.MinEigenvalue(),
		SpectralLower:  lo,
		SpectralUpper:  hi,
		Stationary:     dec.Pi,
	}
}

// lanczosSeed fixes the Lanczos start vector so repeated analyses of the
// same (game, β) pair — and therefore cached service responses — agree bit
// for bit.
const lanczosSeed = 0x1a9c205

// lanczosMaxIter caps the Krylov dimension. The Ritz early-stop usually
// exits within a few dozen steps; full reorthogonalization keeps the whole
// Krylov basis, so this cap also bounds the k·N basis memory.
const lanczosMaxIter = 256

// RelaxationSandwichPar measures λ* and the relaxation time through the
// requested backend without ever materializing a dense matrix (unless the
// dense backend itself is requested), and converts t_rel into the Theorem
// 2.3 mixing-time sandwich. The chain must be reversible with a
// closed-form stationary distribution, i.e. the game must be an exact
// potential game — that is what makes the symmetrized operator symmetric
// and the Gibbs measure available without a dense solve. A caller that
// already holds the Gibbs measure passes it as pi (it is not re-verified);
// pi == nil computes it here. Result.Stationary is that π.
//
// Operator construction, the Lanczos mat-vecs and the re-orthogonalization
// sweep all run on par. The budget never changes the measured spectrum —
// every parallel reduction underneath uses fixed block boundaries — so
// reports are bit-identical for every worker count. par.Arena (nil =
// fresh) supplies the sparse operator's CSR arrays, the symmetrized
// operator's workspace and the whole Lanczos basis, so a sweep that hands
// the same arena to consecutive same-shape points reuses all of it.
// Nothing arena-backed escapes into the returned Result.
func RelaxationSandwichPar(d *logit.Dynamics, backend logit.Backend, eps float64, pi []float64, par linalg.ParallelConfig) (*Result, error) {
	if backend == logit.BackendAuto || backend == "" {
		return nil, fmt.Errorf("mixing: RelaxationSandwich needs a concrete backend")
	}
	if pi == nil {
		var err error
		pi, err = d.GibbsPar(par)
		if err != nil {
			return nil, fmt.Errorf("mixing: the %s backend needs a potential game (reversible chain with closed-form π): %w", backend, err)
		}
	}
	if backend == logit.BackendDense {
		dec, derr := spectral.Decompose(d.TransitionDensePar(par), pi)
		if derr != nil {
			return nil, derr
		}
		return decompositionResult(d, dec, eps), nil
	}
	p, err := d.OperatorPar(backend, par)
	if err != nil {
		return nil, err
	}
	op, err := spectral.NewSymOperatorPar(p, pi, par)
	if err != nil {
		return nil, err
	}
	res, err := spectral.Lanczos(op, lanczosMaxIter, 1e-12, rng.New(lanczosSeed))
	if err != nil {
		return nil, err
	}
	lo, hi := spectral.MixingTimeSandwich(res.RelaxationTime(), pi, eps)
	return &Result{
		Beta:              d.Beta(),
		Backend:           backend,
		Converged:         res.Converged,
		RelaxationTime:    res.RelaxationTime(),
		LambdaStar:        res.LambdaStar(),
		MinEigenvalue:     res.LambdaMin,
		SpectralLower:     lo,
		SpectralUpper:     hi,
		LanczosIterations: res.Iterations,
		Stationary:        pi,
	}, nil
}

// EvolutionMixingTimePar measures t_mix(eps) by brute-force evolution of
// a point mass from every starting state on the CSR chain, advancing all
// states in lockstep until the worst TV distance drops to eps. It is
// O(maxT·|S|·nnz) and exists as an independent cross-check of the spectral
// route on small chains. A caller that already holds the stationary
// distribution passes it as pi; pi == nil computes it here. The worker
// budget drives the per-start evolution sweep; each start's distribution
// evolves serially in its own fixed slot, so results are worker-invariant.
func EvolutionMixingTimePar(d *logit.Dynamics, eps float64, maxT int, pi []float64, par linalg.ParallelConfig) (int64, error) {
	if pi == nil {
		var err error
		if pi, err = d.StationaryPar(par); err != nil {
			return 0, err
		}
	}
	return evolve(d.TransitionCSRPar(par), pi, eps, int64(maxT), par)
}

// evolve is the lockstep evolution behind EvolutionMixingTimePar and the
// fallback of ExactMixingTimePar: every starting state of the chain p
// evolves in lockstep until the worst TV distance to pi is at most eps,
// for at most maxT steps. It sets p's own mat-vecs to run serially, since
// par already fans out over the starts.
func evolve(p *linalg.CSR, pi []float64, eps float64, maxT int64, par linalg.ParallelConfig) (int64, error) {
	p.WithParallel(linalg.Serial)
	size := p.NRows
	// One distribution per starting state.
	dists := make([][]float64, size)
	next := make([][]float64, size)
	for x := range dists {
		dists[x] = make([]float64, size)
		dists[x][x] = 1
		next[x] = make([]float64, size)
	}
	mixed := func() bool {
		w := 0.0
		for x := range dists {
			if tv := markov.TVDistance(dists[x], pi); tv > w {
				w = tv
			}
		}
		// Same tie-breaking slack as the spectral route.
		return w <= eps+spectral.TVTol
	}
	if mixed() {
		return 0, nil
	}
	for t := int64(1); t <= maxT; t++ {
		par.For(size, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				p.MatVecTrans(next[x], dists[x])
			}
		})
		dists, next = next, dists
		if mixed() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("mixing: evolution did not mix within %d steps", maxT)
}

// GrowthExponent fits the slope of log(t_mix) against β by least squares.
// The theorems of Sections 3 and 5 predict slopes ΔΦ (Thm 3.4/3.5), ζ
// (Thm 3.8/3.9) and 2δ (Thm 5.6/5.7); Section 4 predicts slope 0.
func GrowthExponent(betas []float64, mixingTimes []float64) (slope float64, err error) {
	if len(betas) != len(mixingTimes) || len(betas) < 2 {
		return 0, fmt.Errorf("mixing: need >= 2 matched samples")
	}
	logT := make([]float64, len(mixingTimes))
	for i, v := range mixingTimes {
		if v <= 0 {
			return 0, fmt.Errorf("mixing: non-positive mixing time %g", v)
		}
		logT[i] = math.Log(v)
	}
	// Least squares slope.
	n := float64(len(betas))
	var sx, sy, sxx, sxy float64
	for i := range betas {
		sx += betas[i]
		sy += logT[i]
		sxx += betas[i] * betas[i]
		sxy += betas[i] * logT[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("mixing: degenerate β grid")
	}
	return (n*sxy - sx*sy) / den, nil
}

// BoundsReport evaluates every applicable paper bound for the logit dynamics
// of a potential game at one β.
type BoundsReport struct {
	Stats *PotentialStats
	// Theorem 3.4 all-β upper bound.
	Thm34Upper float64
	// Theorem 3.6 small-β bound, valid only if Thm36Applies.
	Thm36Applies bool
	Thm36Upper   float64
	// Theorem 3.8/3.9 ζ-bounds.
	Thm38Upper float64
	Thm39Lower float64
	// Dominant-strategy bounds (Section 4), valid if the game has a
	// dominant profile.
	HasDominantProfile bool
	Thm42Upper         float64
}

// ReportFromStats computes the bounds report for a potential game at
// inverse noise β from its potential statistics (AnalyzePotentialPar): it
// evaluates the closed-form bounds without re-tabulating Φ. Every worker
// budget produces identical stats, so a report built from any of them is
// the same report.
func ReportFromStats(p game.Potential, beta, eps float64, st *PotentialStats) (*BoundsReport, error) {
	sp := game.SpaceOf(p)
	n, m := sp.Players(), sp.MaxStrategies()
	const smallBetaC = 0.5
	r := &BoundsReport{
		Stats:      st,
		Thm34Upper: Theorem34Upper(n, m, beta, st.DeltaPhi, eps),
		Thm38Upper: Theorem38Upper(n, m, beta, st.Zeta, st.DeltaPhi, eps),
		Thm39Lower: Theorem39Lower(m, math.Pow(float64(m), float64(n)), beta, st.Zeta, eps),
	}
	if Theorem36Condition(n, beta, st.SmallDeltaPhi, smallBetaC) {
		r.Thm36Applies = true
		r.Thm36Upper = Theorem36Upper(n, smallBetaC, eps)
	}
	if _, ok := game.DominantProfilePar(p, 1e-12, linalg.Serial); ok {
		r.HasDominantProfile = true
		r.Thm42Upper = Theorem42Upper(n, m)
	}
	return r, nil
}

// Package core is the high-level entry point of the library: an Analyzer
// that, given a strategic game and an inverse noise β, produces everything
// the paper talks about — the logit dynamics chain, its stationary (Gibbs)
// distribution, the full spectrum, the exact mixing time, the potential
// statistics (ΔΦ, δΦ, ζ) and every applicable closed-form bound from the
// paper's Sections 3–5.
//
// Typical use:
//
//	g, _ := game.NewCoordination2x2(3, 2, 0, 0)
//	a, _ := core.NewAnalyzer(g, 1.0)
//	rep, _ := a.Analyze(core.Options{})
//	fmt.Println(rep.MixingTime, rep.Bounds.Thm34Upper)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/obs"
	"logitdyn/internal/rng"
	"logitdyn/internal/sim"
	"logitdyn/internal/spectral"
)

// Analyzer bundles a game with an inverse noise level.
type Analyzer struct {
	dyn *logit.Dynamics
}

// NewAnalyzer validates the inputs and returns an analyzer. The profile
// space must be materializable for exact analysis; simulation entry points
// work regardless.
func NewAnalyzer(g game.Game, beta float64) (*Analyzer, error) {
	d, err := logit.New(g, beta)
	if err != nil {
		return nil, err
	}
	return &Analyzer{dyn: d}, nil
}

// Dynamics exposes the underlying logit dynamics.
func (a *Analyzer) Dynamics() *logit.Dynamics { return a.dyn }

// DefaultMaxExactStates is the default dense threshold: the largest profile
// space the exact eigendecomposition route takes on. Every entry point that
// needs the auto-selection rule (CLIs, the service) references this one
// constant so their routing never diverges.
const DefaultMaxExactStates = 4096

// Options tunes Analyze.
type Options struct {
	// Eps is the total-variation target; 0 means the paper's 1/4.
	Eps float64
	// MaxT caps the measurable mixing time; 0 means 2^62.
	MaxT int64
	// MaxExactStates is the dense threshold: at or below it the exact
	// eigendecomposition (and exact d(t) mixing time) runs; above it the
	// auto backend switches to the sparse Lanczos route. 0 means 4096.
	MaxExactStates int
	// Backend selects the linear-algebra backend: "auto" (default, dense
	// up to MaxExactStates then sparse), "dense", "sparse" or "matfree".
	Backend string
	// Parallel is the execution value for the analysis. Its worker budget
	// drives operator mat-vecs, Lanczos re-orthogonalization and the
	// Gibbs/potential/welfare/equilibrium sweeps; the zero value selects
	// GOMAXPROCS. Its Arena, when set, supplies the analysis' working
	// memory: the sparse operator's CSR arrays, the potential tables and ζ
	// scan temporaries, and the whole Lanczos workspace check out of it
	// instead of the heap. The caller owns the arena and must not Reset or
	// reuse it while the analysis runs; serving layers hand one out per
	// worker token, and nil allocates fresh. Neither part EVER changes any
	// reported number — every parallel reduction underneath uses fixed
	// block boundaries and checkouts come back zeroed, exactly like make —
	// which is why serving layers exclude Parallel from cache keys and why
	// the golden-report corpus is stable across machines.
	Parallel linalg.ParallelConfig
}

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = mixing.DefaultEps
	}
	if o.MaxT == 0 {
		o.MaxT = 1 << 62
	}
	if o.MaxExactStates == 0 {
		o.MaxExactStates = DefaultMaxExactStates
	}
	if o.Backend == "" {
		o.Backend = string(logit.BackendAuto)
	}
	return o
}

// Normalized returns the options with all defaults filled in, so that
// equivalent zero-value spellings collapse to one representation. Cache
// layers key analyses on normalized options.
func (o Options) Normalized() Options { return o.withDefaults() }

// Report is the full analysis of one (game, β) pair.
type Report struct {
	Beta float64
	// NumProfiles is |S|.
	NumProfiles int
	// Backend names the linear-algebra backend that ran: "dense", "sparse"
	// or "matfree" (auto resolves before the analysis starts).
	Backend string
	// MixingTimeExact reports whether MixingTime holds the exact t_mix(ε).
	// On the sparse/matfree Lanczos route it is false, MixingTime is 0, and
	// [SpectralLower, SpectralUpper] is the Theorem 2.3 answer.
	MixingTimeExact bool
	// MixingTime is the exact t_mix(ε) when MixingTimeExact.
	MixingTime int64
	// SpectralLower and SpectralUpper are the Theorem 2.3 mixing-time
	// sandwich derived from the relaxation time (NaN when the chain is not
	// reversible and no spectral route ran).
	SpectralLower, SpectralUpper float64
	// RelaxationTime is 1/(1−λ*).
	RelaxationTime float64
	// LambdaStar and MinEigenvalue describe the spectrum.
	LambdaStar, MinEigenvalue float64
	// LanczosIterations is the Krylov dimension the iterative route used
	// (0 on the dense path).
	LanczosIterations int
	// SpectralConverged reports whether the spectral estimates stabilized.
	// Always true on the dense path; false when the Lanczos iteration cap
	// ran out first, in which case λ* and the sandwich are lower bounds.
	SpectralConverged bool
	// Stationary is the stationary distribution (Gibbs for potential games).
	Stationary []float64
	// IsPotentialGame reports whether an exact potential was available (or
	// reconstructible).
	IsPotentialGame bool
	// Stats holds ΔΦ, δΦ and ζ for potential games (nil otherwise).
	Stats *mixing.PotentialStats
	// Bounds holds the paper's closed-form bounds for potential games
	// (nil otherwise).
	Bounds *mixing.BoundsReport
	// PureNash lists the pure Nash equilibria by profile index.
	PureNash []int
	// DominantProfile is the dominant-strategy profile if one exists.
	DominantProfile []int
	// Welfare summarizes the stationary expected social welfare (the
	// authors' SAGT'10 companion quantity).
	Welfare *mixing.WelfareReport
}

// Analyze runs the analysis pipeline through the selected backend.
//
// The dense backend (auto's choice at or below MaxExactStates) runs the
// exact route: full eigendecomposition, exact t_mix(ε) from d(t), plus the
// Theorem 2.3 sandwich for reference. Above the threshold — or when sparse
// or matfree is requested explicitly — the Lanczos route measures λ* and
// the relaxation time through the chosen operator backend and reports the
// Theorem 2.3 sandwich in place of the exact mixing time; this requires a
// potential game (reversible chain with closed-form Gibbs π). Either way
// the report carries potential statistics, paper bounds, equilibrium
// structure and stationary welfare. Above the dense threshold the O(|S|)
// payload vectors (stationary distribution, potential table) are elided
// from the report to keep it serializable.
func (a *Analyzer) Analyze(opts Options) (*Report, error) {
	return a.AnalyzeCtx(context.Background(), opts)
}

// AnalyzeCtx is Analyze with observability: when ctx carries an
// obs.Observer (and optionally a live trace), the pipeline records
// per-stage spans — stationary/Gibbs, the dense spectral route or the
// Lanczos sweep, the potential-stats/equilibrium/welfare pass — into the
// stage histograms and the request's trace. The spans are pure
// observation: the returned report is bit-identical to Analyze's
// (pinned by the golden-invariance test), because no timer value ever
// enters the report.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	sp := a.dyn.Space()
	size := sp.Size()
	requested, err := logit.ParseBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	backend := requested.Resolve(size, opts.MaxExactStates)
	if backend == logit.BackendDense && size > opts.MaxExactStates {
		return nil, fmt.Errorf("core: %d profiles exceed the dense exact-analysis cap %d; use backend \"sparse\", \"matfree\" or \"auto\"",
			size, opts.MaxExactStates)
	}
	rep := &Report{Beta: a.dyn.Beta(), NumProfiles: size, Backend: string(backend)}

	// The stationary distribution is shared by the spectral route, the
	// report payload and the welfare pass; compute it once. reconPhi holds
	// a reconstructed potential table when the game is an exact potential
	// game that doesn't declare one, so the stats pass doesn't redo the
	// reconstruction.
	var pi []float64
	var reconPhi []float64

	if backend == logit.BackendDense {
		endSpectral := obs.StartSpan(ctx, obs.StageSpectral)
		if res, err := mixing.ExactMixingTimePar(a.dyn, opts.Eps, opts.MaxT, opts.Parallel); err == nil {
			rep.MixingTimeExact = true
			rep.SpectralConverged = true
			rep.MixingTime = res.MixingTime
			rep.RelaxationTime = res.RelaxationTime
			rep.LambdaStar = res.LambdaStar
			rep.MinEigenvalue = res.MinEigenvalue
			rep.SpectralLower = res.SpectralLower
			rep.SpectralUpper = res.SpectralUpper
			pi = res.Stationary
		} else {
			// Non-reversible chains (non-potential games) have no symmetric
			// spectral decomposition; measure by brute-force evolution instead
			// and mark the spectral fields unavailable.
			maxEvo := opts.MaxT
			if maxEvo > 1<<20 {
				maxEvo = 1 << 20
			}
			tm, evoErr := mixing.EvolutionMixingTimePar(a.dyn, opts.Eps, int(maxEvo), opts.Parallel)
			if evoErr != nil {
				endSpectral()
				return nil, fmt.Errorf("core: spectral route failed (%v) and evolution fallback failed (%v)", err, evoErr)
			}
			rep.MixingTimeExact = true
			rep.SpectralConverged = true
			rep.MixingTime = tm
			rep.RelaxationTime = math.NaN()
			rep.LambdaStar = math.NaN()
			rep.MinEigenvalue = math.NaN()
			rep.SpectralLower = math.NaN()
			rep.SpectralUpper = math.NaN()
		}
		endSpectral()
	} else {
		endStationary := obs.StartSpan(ctx, obs.StageStationary)
		gibbs, gerr := a.dyn.GibbsPar(opts.Parallel)
		if gerr != nil {
			// A game can be an exact potential game without declaring Φ
			// (e.g. a utility-table document): reconstruct the potential —
			// the same O(N·n·m) integration the dense route runs for its
			// stats — and build the Gibbs measure from it.
			phi, ok := game.ReconstructPotential(a.dyn.Game(), 1e-9)
			if !ok {
				endStationary()
				return nil, fmt.Errorf("core: the %s backend needs a potential game (reversible chain with closed-form π): %w", backend, gerr)
			}
			reconPhi = phi
			gibbs = gibbsFromPhi(phi, a.dyn.Beta())
		}
		pi = gibbs
		endStationary()
		endLanczos := obs.StartSpan(ctx, obs.StageLanczos)
		res, lerr := mixing.RelaxationSandwichPar(a.dyn, backend, opts.Eps, pi, opts.Parallel)
		endLanczos()
		if lerr != nil {
			return nil, lerr
		}
		rep.RelaxationTime = res.RelaxationTime
		rep.LambdaStar = res.LambdaStar
		rep.MinEigenvalue = res.MinEigenvalue
		rep.SpectralLower = res.SpectralLower
		rep.SpectralUpper = res.SpectralUpper
		rep.LanczosIterations = res.LanczosIterations
		rep.SpectralConverged = res.Converged
	}

	if pi == nil {
		endStationary := obs.StartSpan(ctx, obs.StageStationary)
		pi, err = a.dyn.StationaryPar(opts.Parallel)
		endStationary()
		if err != nil {
			return nil, err
		}
	}
	// Above the dense threshold the full vector payloads would dominate
	// every response; the scalar summaries carry the analysis.
	large := size > opts.MaxExactStates
	if !large {
		rep.Stationary = pi
	}

	endStats := obs.StartSpan(ctx, obs.StageStats)
	defer endStats()
	g := a.dyn.Game()
	if p, ok := game.AsPotential(g); ok {
		rep.IsPotentialGame = true
		rep.Stats, err = mixing.AnalyzePotentialPar(p, opts.Parallel)
		if err != nil {
			return nil, err
		}
		// The Φ table may live in the arena. Small-game reports keep it,
		// so it must survive the arena's Reset; large reports elide it
		// below.
		if !large && opts.Parallel.Arena != nil {
			rep.Stats.Phi = slices.Clone(rep.Stats.Phi)
		}
		// The serial and parallel potential analyses agree exactly, so the
		// bounds built from these stats match what mixing.Report computes.
		rep.Bounds, err = mixing.ReportFromStats(p, a.dyn.Beta(), opts.Eps, rep.Stats)
		if err != nil {
			return nil, err
		}
	} else {
		phi := reconPhi
		if phi == nil {
			if p2, ok := game.ReconstructPotential(g, 1e-9); ok {
				phi = p2
			}
		}
		if phi != nil {
			rep.IsPotentialGame = true
			rep.Stats, err = mixing.AnalyzePhiTablePar(sp, phi, opts.Parallel)
			if err != nil {
				return nil, err
			}
		}
	}
	if large {
		if rep.Stats != nil {
			rep.Stats.Phi = nil
		}
		if rep.Bounds != nil && rep.Bounds.Stats != nil {
			rep.Bounds.Stats.Phi = nil
		}
	}

	rep.PureNash = game.PureNashEquilibriaPar(g, 1e-12, opts.Parallel)
	if prof, ok := game.DominantProfilePar(g, 1e-12, opts.Parallel); ok {
		rep.DominantProfile = prof
	}
	rep.Welfare, err = mixing.StationaryWelfarePar(a.dyn, pi, opts.Parallel)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// gibbsFromPhi builds π(x) ∝ exp(−β·Φ(x)) from an explicit potential
// table, with the minimum-potential shift so large β cannot overflow.
func gibbsFromPhi(phi []float64, beta float64) []float64 {
	minPhi := math.Inf(1)
	for _, v := range phi {
		if v < minPhi {
			minPhi = v
		}
	}
	pi := make([]float64, len(phi))
	total := 0.0
	for i, v := range phi {
		pi[i] = math.Exp(-beta * (v - minPhi))
		total += pi[i]
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi
}

// AnalyzeGame is the one-shot entry point: build the analyzer for (g, β)
// and run the exact pipeline. Serving layers use it as the cache-miss
// path, keyed on the canonical game hash plus Normalized options.
func AnalyzeGame(g game.Game, beta float64, opts Options) (*Report, error) {
	return AnalyzeGameCtx(context.Background(), g, beta, opts)
}

// AnalyzeGameCtx is AnalyzeGame with observability context: stage spans
// are recorded against the ctx's observer/trace and never change the
// report (see AnalyzeCtx).
func AnalyzeGameCtx(ctx context.Context, g game.Game, beta float64, opts Options) (*Report, error) {
	a, err := NewAnalyzer(g, beta)
	if err != nil {
		return nil, err
	}
	return a.AnalyzeCtx(ctx, opts)
}

// MixingTime is a convenience wrapper returning only the exact t_mix(ε).
func (a *Analyzer) MixingTime(eps float64, maxT int64) (int64, error) {
	if eps == 0 {
		eps = mixing.DefaultEps
	}
	if maxT == 0 {
		maxT = 1 << 62
	}
	res, err := mixing.ExactMixingTime(a.dyn, eps, maxT)
	if err != nil {
		return 0, err
	}
	return res.MixingTime, nil
}

// Spectrum returns the sorted eigenvalues (λ1 = 1 first) of the chain.
func (a *Analyzer) Spectrum() ([]float64, error) {
	pi, err := a.dyn.Stationary()
	if err != nil {
		return nil, err
	}
	dec, err := spectral.Decompose(a.dyn.TransitionDense(), pi)
	if err != nil {
		return nil, err
	}
	return dec.Values, nil
}

// Gibbs returns the stationary Gibbs measure for potential games.
func (a *Analyzer) Gibbs() ([]float64, error) { return a.dyn.Gibbs() }

// Simulate runs t logit steps from start and returns the empirical
// occupancy distribution over profile indices.
func (a *Analyzer) Simulate(start []int, t int, seed uint64) ([]float64, error) {
	if t <= 0 {
		return nil, errors.New("core: Simulate needs t > 0")
	}
	if err := a.dyn.Space().CheckProfile(start); err != nil {
		return nil, fmt.Errorf("core: Simulate start %w", err)
	}
	counts := a.dyn.Trajectory(start, t, rng.New(seed))
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(t+1)
	}
	return out, nil
}

// SimulateReplicas runs `replicas` independent t-step trajectories from
// start on a bounded worker pool and returns the pooled empirical occupancy
// distribution. Replica r's RNG stream is Split(r) of the base seed, so the
// sample is reproducible from (seed, replicas) alone; all replicas share
// one logit.Walker, whose σ table is built on the same worker budget;
// visit counts merge by integer addition, so workers only change
// wall-clock time — the returned distribution is bit-identical for every
// worker count, including 1.
func (a *Analyzer) SimulateReplicas(start []int, t, replicas int, seed uint64, workers int) ([]float64, error) {
	if t <= 0 {
		return nil, errors.New("core: SimulateReplicas needs t > 0")
	}
	if replicas <= 0 {
		return nil, errors.New("core: SimulateReplicas needs replicas > 0")
	}
	if err := a.dyn.Space().CheckProfile(start); err != nil {
		return nil, fmt.Errorf("core: SimulateReplicas start %w", err)
	}
	size := a.dyn.Space().Size()
	w := a.dyn.NewWalker(t, replicas, linalg.ParallelConfig{Workers: workers})
	counts := sim.SumCounts(replicas, seed, workers, size, func(_ int, r *rng.RNG, acc []int64) {
		w.Walk(acc, start, t, r, 0, nil)
	})
	out := make([]float64, size)
	visits := float64(replicas) * float64(t+1)
	for i, c := range counts {
		out[i] = float64(c) / visits
	}
	return out, nil
}

// GrowthExponent sweeps β over the grid, measures exact mixing times, and
// returns the fitted slope of log t_mix against β together with the
// per-β measurements. The theorems predict ΔΦ, ζ, 2δ or 0 depending on the
// game class.
func GrowthExponent(g game.Game, betas []float64, eps float64, maxT int64) (slope float64, times []int64, err error) {
	if eps == 0 {
		eps = mixing.DefaultEps
	}
	if maxT == 0 {
		maxT = 1 << 62
	}
	times = make([]int64, len(betas))
	ft := make([]float64, len(betas))
	for i, b := range betas {
		a, err := NewAnalyzer(g, b)
		if err != nil {
			return 0, nil, err
		}
		tm, err := a.MixingTime(eps, maxT)
		if err != nil {
			return 0, nil, err
		}
		times[i] = tm
		ft[i] = math.Max(float64(tm), 1)
	}
	slope, err = mixing.GrowthExponent(betas, ft)
	if err != nil {
		return 0, nil, err
	}
	return slope, times, nil
}

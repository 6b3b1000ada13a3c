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
	"sync"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/obs"
	"logitdyn/internal/rng"
	"logitdyn/internal/sim"
)

// Analyzer bundles a prepared game with an inverse noise level.
type Analyzer struct {
	prep *Prepared
	dyn  *logit.Dynamics
}

// NewAnalyzer validates the inputs and returns an analyzer. The profile
// space must be materializable for exact analysis; simulation entry points
// work regardless.
func NewAnalyzer(g game.Game, beta float64) (*Analyzer, error) {
	d, err := logit.New(g, beta)
	if err != nil {
		return nil, err
	}
	return &Analyzer{prep: Prepare(g), dyn: d}, nil
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
	// GOMAXPROCS. Its Arena, when set, supplies the analysis' per-β
	// working memory: the sparse operator's CSR arrays, the Gibbs pass's
	// scratch and the whole Lanczos workspace check out of it instead of
	// the heap. The game's facts (the potential statistics with their Φ
	// table and ζ-scan temporaries, the equilibrium scans) outlive any one
	// analysis, so they are computed on the heap, never in the arena (see
	// Prepared). The caller owns the arena and must not Reset or
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

// Validate checks the options once defaults are filled in: ε must lie in
// (0, 1) and MaxT must be nonnegative. AnalyzeCtx runs it first, and
// serving layers run it before keying, so an out-of-range target is an
// input error rather than a fallback route, a cached report or a search
// that never ends.
func (o Options) Validate() error {
	o = o.withDefaults()
	if !(o.Eps > 0 && o.Eps < 1) {
		return fmt.Errorf("core: eps must be in (0, 1), got %v", o.Eps)
	}
	if o.MaxT < 0 {
		return fmt.Errorf("core: max_t must be nonnegative, got %d", o.MaxT)
	}
	return nil
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
// per-stage spans — the dense spectral route, or the Gibbs measure and
// the Lanczos sweep, then the potential-stats/equilibrium/welfare pass —
// into the stage histograms and the request's trace. The spans are pure
// observation: the returned report is bit-identical to Analyze's (pinned
// by the golden-invariance test), because no timer value ever enters the
// report. The game's β-independent facts come from the analyzer's
// Prepared, so repeated analyses compute them once.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, opts Options) (*Report, error) {
	return a.prep.analyze(ctx, a.dyn, opts)
}

// Prepared is a game together with its β-independent facts: the potential
// statistics ΔΦ, δΦ, ζ and the Φ table they are read from (reconstructed
// when the game is an exact potential game that does not declare Φ), the
// pure Nash equilibria and the dominant-strategy profile. The paper's
// results are curves in β for a fixed game, so a β-sweep prepares its game
// once and every point reads the same facts.
//
// Each fact is computed at most once, by the first analysis that needs it,
// on that analysis' worker budget and never in its arena (the facts
// outlive every analysis). A Prepared is safe for concurrent analyses.
// Reports never alias the facts they can change: each gets its own copy of
// the stats struct and of the equilibrium and dominant-profile slices;
// only the Φ table of a small report is shared, and it is read-only.
type Prepared struct {
	g game.Game

	potOnce sync.Once
	pot     potentialFacts

	scanOnce sync.Once
	nash     []int
	dominant []int // nil when the game has no dominant profile
}

// potentialFacts is the Prepared's potential landscape.
type potentialFacts struct {
	// declared is the game's own potential, nil when it declares none.
	declared game.Potential
	// stats is nil when the game has no exact potential at all.
	stats *mixing.PotentialStats
	err   error
}

// Prepare wraps g for analysis at any number of β values. It does no work
// until the first analysis runs.
func Prepare(g game.Game) *Prepared { return &Prepared{g: g} }

// Game returns the prepared game.
func (p *Prepared) Game() game.Game { return p.g }

// AnalyzeCtx analyzes the logit dynamics of the prepared game at inverse
// noise β (see Analyzer.AnalyzeCtx). It reports exactly what
// AnalyzeGameCtx reports for the same game, β and options.
func (p *Prepared) AnalyzeCtx(ctx context.Context, beta float64, opts Options) (*Report, error) {
	d, err := logit.New(p.g, beta)
	if err != nil {
		return nil, err
	}
	return p.analyze(ctx, d, opts)
}

// potential returns the potential facts, computing them on the first call.
func (p *Prepared) potential(par linalg.ParallelConfig) *potentialFacts {
	p.potOnce.Do(func() {
		par.Arena = nil // the facts outlive the analysis computing them
		if d, ok := game.AsPotential(p.g); ok {
			p.pot.declared = d
			p.pot.stats, p.pot.err = mixing.AnalyzePotentialPar(d, par)
			return
		}
		// A game can be an exact potential game without declaring Φ (e.g. a
		// utility-table document): reconstruct the potential once.
		if phi, ok := game.ReconstructPotential(p.g, 1e-9); ok {
			p.pot.stats, p.pot.err = mixing.AnalyzePhiTablePar(game.SpaceOf(p.g), phi, par)
		}
	})
	return &p.pot
}

// scans returns the pure Nash equilibria and the dominant profile,
// scanning for them on the first call.
func (p *Prepared) scans(par linalg.ParallelConfig) (nash, dominant []int) {
	p.scanOnce.Do(func() {
		par.Arena = nil
		p.nash = game.PureNashEquilibriaPar(p.g, 1e-12, par)
		if prof, ok := game.DominantProfilePar(p.g, 1e-12, par); ok {
			p.dominant = prof
		}
	})
	return p.nash, p.dominant
}

// analyze runs the pipeline for the dynamics d of the prepared game. The
// dense route is one call to mixing.ExactMixingTimePar, which builds the
// chain once, returns π with the measurement and evolves the chain only
// when it has no spectral decomposition (a game without a potential, or π
// underflowed); its spectral fields are then NaN.
func (p *Prepared) analyze(ctx context.Context, d *logit.Dynamics, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sp := d.Space()
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
	var res *mixing.Result
	if backend == logit.BackendDense {
		endSpectral := obs.StartSpan(ctx, obs.StageSpectral)
		res, err = mixing.ExactMixingTimePar(d, opts.Eps, opts.MaxT, opts.Parallel)
		endSpectral()
	} else {
		endStationary := obs.StartSpan(ctx, obs.StageStationary)
		gibbs, gerr := d.GibbsPar(opts.Parallel)
		if gerr != nil {
			// Without a declared Φ, the Gibbs measure comes from the
			// reconstructed potential — the same table the stats read.
			pot := p.potential(opts.Parallel)
			if pot.stats == nil {
				endStationary()
				return nil, fmt.Errorf("core: the %s backend needs a potential game (reversible chain with closed-form π): %w", backend, gerr)
			}
			gibbs = gibbsFromPhi(pot.stats.Phi, d.Beta())
		}
		endStationary()
		endLanczos := obs.StartSpan(ctx, obs.StageLanczos)
		res, err = mixing.RelaxationSandwichPar(d, backend, opts.Eps, gibbs, opts.Parallel)
		endLanczos()
	}
	if err != nil {
		return nil, err
	}
	// The stationary distribution is shared by the report payload and the
	// welfare pass.
	pi := res.Stationary
	rep := &Report{
		Beta:              d.Beta(),
		NumProfiles:       size,
		Backend:           string(backend),
		MixingTimeExact:   res.Exact,
		MixingTime:        res.MixingTime,
		SpectralLower:     res.SpectralLower,
		SpectralUpper:     res.SpectralUpper,
		RelaxationTime:    res.RelaxationTime,
		LambdaStar:        res.LambdaStar,
		MinEigenvalue:     res.MinEigenvalue,
		LanczosIterations: res.LanczosIterations,
		SpectralConverged: res.Converged,
	}

	// Above the dense threshold the full vector payloads would dominate
	// every response; the scalar summaries carry the analysis.
	large := size > opts.MaxExactStates
	if !large {
		rep.Stationary = pi
	}

	endStats := obs.StartSpan(ctx, obs.StageStats)
	defer endStats()
	pot := p.potential(opts.Parallel)
	if pot.err != nil {
		return nil, pot.err
	}
	nash, dominant := p.scans(opts.Parallel)
	if pot.stats != nil {
		rep.IsPotentialGame = true
		st := *pot.stats
		if large {
			st.Phi = nil
		}
		rep.Stats = &st
		if pot.declared != nil {
			rep.Bounds = mixing.BoundsFromStats(sp, d.Beta(), opts.Eps, rep.Stats, dominant != nil)
		}
	}
	rep.PureNash = slices.Clone(nash)
	rep.DominantProfile = slices.Clone(dominant)
	rep.Welfare, err = mixing.WelfareFromNash(d, pi, rep.PureNash, opts.Parallel)
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

// AnalyzeGame is the one-shot entry point: prepare g and analyze it at β.
// Serving layers use it as the cache-miss path, keyed on the canonical
// game hash plus Normalized options.
func AnalyzeGame(g game.Game, beta float64, opts Options) (*Report, error) {
	return AnalyzeGameCtx(context.Background(), g, beta, opts)
}

// AnalyzeGameCtx is AnalyzeGame with observability context: stage spans
// are recorded against the ctx's observer/trace and never change the
// report (see AnalyzeCtx). It is Prepare(g).AnalyzeCtx(ctx, beta, opts);
// callers that analyze one game at several β should keep the Prepared.
func AnalyzeGameCtx(ctx context.Context, g game.Game, beta float64, opts Options) (*Report, error) {
	return Prepare(g).AnalyzeCtx(ctx, beta, opts)
}

// MixingTime is a convenience wrapper returning only the exact t_mix(ε)
// from the dense route (mixing.ExactMixingTimePar): a game without a
// potential is measured by evolution, as Analyze measures it.
func (a *Analyzer) MixingTime(eps float64, maxT int64) (int64, error) {
	if eps == 0 {
		eps = mixing.DefaultEps
	}
	if maxT == 0 {
		maxT = 1 << 62
	}
	res, err := mixing.ExactMixingTimePar(a.dyn, eps, maxT, linalg.ParallelConfig{})
	if err != nil {
		return 0, err
	}
	return res.MixingTime, nil
}

// Gibbs returns the stationary Gibbs measure for potential games.
func (a *Analyzer) Gibbs() ([]float64, error) { return a.dyn.GibbsPar(linalg.Serial) }

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

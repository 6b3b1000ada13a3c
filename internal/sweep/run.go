// Sweep execution: canonical-hash dedup of the expanded points, bounded
// parallel evaluation that skips points whose reports are already in the
// persistent store, and streaming aggregation into a deterministic summary
// table (the same grid against the same store always produces
// byte-identical JSON/CSV output, whatever the worker count or how many
// earlier runs were killed partway).
package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"logitdyn/internal/cluster"
	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/obs"
	"logitdyn/internal/scratch"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

// Source says where a point's report came from.
type Source string

const (
	// SourceAnalyzed means the analysis ran in this sweep.
	SourceAnalyzed Source = "analyzed"
	// SourceStore means the persistent store already held the report.
	SourceStore Source = "store"
	// SourceCache means an in-memory tier (LRU hit or singleflight join)
	// served it without re-analysis.
	SourceCache Source = "cache"
)

// Job is one unique analysis: the first grid point for each canonical
// key. Besides the key's ingredients it holds a handle on its game,
// shared by every job of one run of adjacent same-spec points (β and ε are
// the innermost grid axes). Prep digests each such game once and drops the
// table; evaluators that need it (a store or cache miss) call Prepared,
// which builds it once for the run, and the runner drops it when the run's
// last job finishes, so a grid holds O(workers) tables at peak.
type Job struct {
	Key    string
	Spec   spec.Spec
	Beta   float64
	Digest [32]byte
	// NumProfiles is |S|, recorded at prep time so evaluators can size
	// worker borrowing without rebuilding the game.
	NumProfiles int
	// Opts are the normalized analysis options with the backend already
	// resolved for this game's size; Key is derived from them.
	Opts core.Options

	game *sharedGame
}

// Prepared returns the job's game with its β-independent facts (see
// core.Prepared). The first caller among the jobs sharing the game builds
// and materializes the table; spec construction is deterministic (seeded
// RNG), so it digests identically to the prep-phase one. The rest read the
// same table and the facts the first analysis computed.
func (j *Job) Prepared() (*core.Prepared, error) { return j.game.get() }

// sharedGame is the game of one run of adjacent same-spec grid points:
// prep checks, builds and digests the spec once for the run, and every
// unique job of the run shares the handle.
type sharedGame struct {
	spec   spec.Spec
	digest [32]byte
	size   int

	mu   sync.Mutex
	jobs int // unfinished jobs holding the handle
	prep *core.Prepared
	err  error // the prep phase's checks or build, or the evaluators' build
}

// Test hooks: onBuild observes every table build, onShared every shared
// table taken (+1) or dropped (−1). Both are nil outside tests.
var (
	onBuild  func()
	onShared func(delta int)
)

// get builds the table on the first call; later calls, concurrent ones
// included, share its outcome.
func (s *sharedGame) get() (*core.Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prep == nil && s.err == nil {
		table, err := buildTable(s.spec)
		if err != nil {
			s.err = err
			return nil, err
		}
		s.prep = core.Prepare(table)
		if onShared != nil {
			onShared(1)
		}
	}
	return s.prep, s.err
}

// release marks one of the handle's jobs finished; the last one drops the
// table and its facts.
func (s *sharedGame) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs--
	if s.jobs == 0 && s.prep != nil {
		s.prep = nil
		if onShared != nil {
			onShared(-1)
		}
	}
}

// buildTable constructs and materializes a spec's game with panic
// containment around BOTH steps — lazy families can defer a panicking
// utility evaluation from Build to Materialize.
func buildTable(s spec.Spec) (*game.TableGame, error) {
	if onBuild != nil {
		onBuild()
	}
	built, err := spec.SafeBuild(func() (game.Game, error) {
		g, err := s.Build()
		if err != nil {
			return nil, err
		}
		return game.Materialize(g), nil
	})
	if err != nil {
		return nil, err
	}
	return built.(*game.TableGame), nil
}

// Outcome is an evaluator's answer for one job.
type Outcome struct {
	Doc    serialize.ReportDoc
	Source Source
}

// Eval evaluates one unique job. Implementations decide the tiering
// (store lookup, daemon cache, direct analysis); the runner handles
// expansion, dedup, fan-out and aggregation either way. ctx is the run's
// context — it carries cancellation and, when the host wired one up, an
// obs observer/trace that evaluators record stage spans against.
type Eval func(ctx context.Context, j *Job) (Outcome, error)

// TokenPool is the worker-token semaphore the runner's evaluators borrow
// from (satisfied by internal/service.Pool and its class-bound views):
// RunCtx holds one blocking token, recording the wait against ctx's trace;
// TryExtra borrows idle tokens for intra-analysis parallelism without
// blocking.
type TokenPool interface {
	RunCtx(ctx context.Context, fn func())
	TryExtra(max int) (got int, release func())
	Workers() int
}

// Row is one grid point's line in the aggregate table. Every field is a
// pure function of the grid and the store's report content — no
// timestamps, durations or tier provenance — which is what makes the
// encoded table byte-identical across cold, warm and resumed runs.
type Row struct {
	Point int             `json:"point"`
	Game  string          `json:"game"`
	Graph string          `json:"graph,omitempty"`
	N     int             `json:"n,omitempty"`
	M     int             `json:"m,omitempty"`
	C     int             `json:"c,omitempty"`
	Beta  serialize.Float `json:"beta"`
	// Eps is the point's resolved TV target (the grid default unless an
	// eps axis overrode it); 0 only on rows that failed before analysis
	// options were derived.
	Eps serialize.Float `json:"eps,omitempty"`
	Key string          `json:"key,omitempty"`
	// Error is set when the point failed (bad spec, over-limit game,
	// analysis error, cancellation); the analysis fields are then zero.
	Error string `json:"error,omitempty"`

	Backend           string          `json:"backend,omitempty"`
	NumProfiles       int             `json:"num_profiles,omitempty"`
	MixingTimeExact   bool            `json:"mixing_time_exact,omitempty"`
	MixingTime        int64           `json:"mixing_time,omitempty"`
	SpectralLower     serialize.Float `json:"spectral_lower"`
	SpectralUpper     serialize.Float `json:"spectral_upper"`
	RelaxationTime    serialize.Float `json:"relaxation_time"`
	LambdaStar        serialize.Float `json:"lambda_star"`
	MinEigenvalue     serialize.Float `json:"min_eigenvalue"`
	LanczosIterations int             `json:"lanczos_iterations,omitempty"`
	SpectralConverged bool            `json:"spectral_converged,omitempty"`
	DeltaPhi          serialize.Float `json:"delta_phi"`
	SmallDeltaPhi     serialize.Float `json:"small_delta_phi"`
	Zeta              serialize.Float `json:"zeta"`
	WelfareExpected   serialize.Float `json:"welfare_expected"`
	WelfareOptimum    serialize.Float `json:"welfare_optimum"`
	WelfareWorst      serialize.Float `json:"welfare_worst_nash"`
}

// rowFrom fills a point's row from its report document.
func rowFrom(p Point, key string, doc serialize.ReportDoc) Row {
	row := baseRow(p)
	row.Key = key
	row.Eps = doc.Eps
	row.Backend = doc.Backend
	row.NumProfiles = doc.NumProfiles
	row.MixingTimeExact = doc.MixingTimeExact
	row.MixingTime = doc.MixingTime
	row.SpectralLower = doc.SpectralLower
	row.SpectralUpper = doc.SpectralUpper
	row.RelaxationTime = doc.RelaxationTime
	row.LambdaStar = doc.LambdaStar
	row.MinEigenvalue = doc.MinEigenvalue
	row.LanczosIterations = doc.LanczosIterations
	row.SpectralConverged = doc.SpectralConverged
	if doc.Stats != nil {
		row.DeltaPhi = doc.Stats.DeltaPhi
		row.SmallDeltaPhi = doc.Stats.SmallDeltaPhi
		row.Zeta = doc.Stats.Zeta
	}
	if doc.Welfare != nil {
		row.WelfareExpected = doc.Welfare.Expected
		row.WelfareOptimum = doc.Welfare.Optimum
		row.WelfareWorst = doc.Welfare.WorstNash
	}
	return row
}

func baseRow(p Point) Row {
	return Row{
		Point: p.Index,
		Game:  p.Spec.Game,
		Graph: graphOf(p.Spec),
		N:     p.Spec.N,
		M:     p.Spec.M,
		C:     p.Spec.C,
		Beta:  serialize.Float(p.Beta),
		Eps:   serialize.Float(p.Eps),
	}
}

// graphOf reports the spec's graph only for families that consult it, so
// a swept graph axis doesn't decorate rows of graph-free families.
func graphOf(s spec.Spec) string {
	switch s.Game {
	case "graphical", "ising", "weighted":
		return s.Graph
	}
	return ""
}

// Result is the deterministic aggregate table of one completed sweep.
type Result struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Points  int    `json:"points"`
	Unique  int    `json:"unique"`
	Rows    []Row  `json:"rows"`
}

// RunStats is the runtime provenance of one run — how each point was
// served. It is intentionally NOT part of Result: warm and cold runs of
// the same grid share a table but not stats.
type RunStats struct {
	Points     int `json:"points"`
	Unique     int `json:"unique"`
	Duplicates int `json:"duplicates"`
	// Analyzed counts fresh analyses this run performed; StoreHits counts
	// unique points served by the persistent store; CacheHits counts
	// in-memory tier hits (daemon-backed sweeps only).
	Analyzed  int `json:"analyzed"`
	StoreHits int `json:"store_hits"`
	CacheHits int `json:"cache_hits"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Add accumulates another run's stats into s — the one place the field
// list is spelled, so multi-grid callers (the experiment executor, CLIs)
// cannot drift when a counter is added.
func (s *RunStats) Add(o RunStats) {
	s.Points += o.Points
	s.Unique += o.Unique
	s.Duplicates += o.Duplicates
	s.Analyzed += o.Analyzed
	s.StoreHits += o.StoreHits
	s.CacheHits += o.CacheHits
	s.Failed += o.Failed
	s.Cancelled += o.Cancelled
}

// Runner executes grids. Eval is required; the zero value of everything
// else selects defaults.
type Runner struct {
	Eval Eval
	// Limits bounds each point like a service request; zero means
	// spec.DefaultLimits.
	Limits spec.Limits
	// Workers bounds how many points evaluate concurrently; <= 0 means
	// GOMAXPROCS. (Evaluators may additionally gate on a TokenPool.)
	Workers int
	// MaxPoints caps the expansion; <= 0 means DefaultMaxPoints.
	MaxPoints int
	// OnRow, when set, streams each finalized row (completion order, which
	// is nondeterministic; the returned Result is always in point order).
	OnRow func(Row)
	// OnProgress, when set, streams monotonic RunStats snapshots as points
	// complete, so a serving layer can report live progress before Run
	// returns. Called with the runner's internal lock held — keep it
	// cheap and never call back into the runner.
	OnProgress func(RunStats)
}

// prep is the dedup phase's record for one unique key.
type prep struct {
	job    *Job
	points []Point // every grid point sharing the key, first one owns job
}

// sameSpec reports whether two points spell the same spec, floats to the
// bit: Go syntax prints each float in its shortest round-trip form.
func sameSpec(a, b spec.Spec) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// Run expands, dedups, evaluates and aggregates the grid. The returned
// Result always has one row per grid point (failed and cancelled points
// carry Error); ctx cancellation stops unstarted points and returns
// ctx.Err() alongside the partial result.
func (r *Runner) Run(ctx context.Context, g *Grid) (*Result, RunStats, error) {
	if r.Eval == nil {
		return nil, RunStats{}, fmt.Errorf("sweep: Runner needs an Eval")
	}
	limits := r.Limits
	if limits == (spec.Limits{}) {
		limits = spec.DefaultLimits()
	}
	points, err := g.Expand(r.MaxPoints)
	if err != nil {
		return nil, RunStats{}, err
	}
	res := &Result{Version: GridVersion, Name: g.Name, Points: len(points), Rows: make([]Row, len(points))}
	stats := RunStats{Points: len(points)}

	var mu sync.Mutex
	// publish streams a stats snapshot; callers hold mu.
	publish := func() {
		if r.OnProgress != nil {
			r.OnProgress(stats)
		}
	}
	finish := func(row Row) {
		mu.Lock()
		res.Rows[row.Point] = row
		mu.Unlock()
		if r.OnRow != nil {
			r.OnRow(row)
		}
	}
	fail := func(p Point, key string, err error) {
		row := baseRow(p)
		row.Key = key
		row.Error = err.Error()
		mu.Lock()
		stats.Failed++
		publish()
		mu.Unlock()
		finish(row)
	}

	// Phase 1 — deterministic sequential prep: build and digest each run
	// of same-spec points once, then key every point; the first point of
	// each canonical key owns the analysis, later ones just share its
	// report.
	byKey := make(map[string]*prep)
	var order []*prep
	var run *sharedGame
	for _, p := range points {
		job, err := r.prepare(p, g, limits, &run)
		if err != nil {
			fail(p, "", err)
			continue
		}
		if pr, ok := byKey[job.Key]; ok {
			pr.points = append(pr.points, p)
			stats.Duplicates++
			continue
		}
		job.game.jobs++
		pr := &prep{job: job, points: []Point{p}}
		byKey[job.Key] = pr
		order = append(order, pr)
	}
	stats.Unique = len(order)
	res.Unique = len(order)
	mu.Lock()
	publish()
	mu.Unlock()

	// evalJob evaluates one unique job and finalizes all of its points.
	evalJob := func(pr *prep) {
		defer pr.job.game.release()
		// failAll gives every point of the job an error row. The options
		// were derived at prep time, so the rows keep their resolved eps
		// even without a report.
		failAll := func(msg string) {
			for _, p := range pr.points {
				row := baseRow(p)
				row.Key = pr.job.Key
				row.Eps = serialize.Float(pr.job.Opts.Eps)
				row.Error = msg
				finish(row)
			}
		}
		if ctx.Err() != nil {
			mu.Lock()
			stats.Cancelled += len(pr.points)
			publish()
			mu.Unlock()
			failAll("sweep cancelled before this point ran")
			return
		}
		out, err := evalSafely(ctx, r.Eval, pr.job)
		if err != nil {
			mu.Lock()
			stats.Failed += len(pr.points)
			publish()
			mu.Unlock()
			failAll(err.Error())
			return
		}
		mu.Lock()
		switch out.Source {
		case SourceStore:
			stats.StoreHits++
		case SourceCache:
			stats.CacheHits++
		default:
			stats.Analyzed++
		}
		publish()
		mu.Unlock()
		for _, p := range pr.points {
			finish(rowFrom(p, pr.job.Key, out.Doc))
		}
	}

	// Phase 2 — bounded fan-out over the unique jobs. Workers race down a
	// shared index; results land at fixed row positions, so scheduling
	// never reorders the table.
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = max(len(order), 1)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				evalJob(order[i])
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return res, stats, ctx.Err()
}

// prepare validates one point against the limits and derives its
// canonical key — the exact derivation the serving layer uses, so sweep
// entries and request-cache entries share an address space. *run is the
// current run of same-spec points: a point that starts a new run checks,
// builds, materializes and digests its spec, and every later point of the
// run reuses that outcome, error included.
func (r *Runner) prepare(p Point, g *Grid, limits spec.Limits, run **sharedGame) (*Job, error) {
	if err := limits.CheckBeta(p.Beta); err != nil {
		return nil, err
	}
	b, err := logit.ParseBackend(g.Backend)
	if err != nil {
		return nil, err
	}
	sg := *run
	if sg == nil || !sameSpec(sg.spec, p.Spec) {
		sg = digestSpec(p.Spec, b, limits)
		*run = sg
	}
	if sg.err != nil {
		return nil, sg.err
	}
	eps := g.Eps
	if p.Eps != 0 {
		eps = p.Eps
	}
	opts := core.Options{
		Eps:            eps,
		MaxT:           g.MaxT,
		MaxExactStates: limits.MaxProfiles,
		Backend:        string(b.Resolve(sg.size, limits.MaxProfiles)),
	}.Normalized()
	return &Job{
		Key:         store.KeyFrom(sg.digest, p.Beta, opts),
		Spec:        p.Spec,
		Beta:        p.Beta,
		Digest:      sg.digest,
		NumProfiles: sg.size,
		Opts:        opts,
		game:        sg,
	}, nil
}

// digestSpec checks, builds and digests one spec for the backend. The
// table is dropped here on purpose: keeping every spec's table alive until
// its turn in the fan-out would make peak memory O(specs × table), not
// O(workers × table).
func digestSpec(s spec.Spec, b logit.Backend, limits spec.Limits) *sharedGame {
	sg := &sharedGame{spec: s}
	if sg.err = limits.CheckSpecFor(s, string(b)); sg.err != nil {
		return sg
	}
	table, err := buildTable(s)
	if err != nil {
		sg.err = err
		return sg
	}
	if sg.err = limits.CheckGameFor(table, string(b)); sg.err != nil {
		return sg
	}
	sg.size = game.SpaceOf(table).Size()
	sg.digest = store.GameDigest(table)
	return sg
}

// evalSafely runs the evaluator with panic containment: a panicking
// analysis must fail its grid point, never crash the process hosting the
// sweep (the daemon serves live traffic on sibling goroutines).
func evalSafely(ctx context.Context, eval Eval, j *Job) (out Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sweep: point evaluation panicked: %v", rec)
		}
	}()
	return eval(ctx, j)
}

// DirectEvalScratch evaluates jobs against the store with no daemon in the
// loop: a store hit is returned as-is (zero re-analysis), a miss analyzes
// the job's shared game (Job.Prepared) on one pool token (borrowing idle
// tokens for intra-analysis parallelism) and writes the report back. The
// jobs of one spec share its table and its β-independent facts, so a
// β-sweep builds each game once and computes its potential statistics and
// equilibrium scans once, in whichever point misses the store first. st is
// any cluster.ReportStore — a plain store, a sharded ring, or a
// peer-backed composition; the table bytes are identical whichever one
// holds the entries. st and pool may each be nil (no persistence /
// unbounded by tokens).
//
// Each analyzed point checks an arena out of sp alongside its worker token
// (riding in its linalg.ParallelConfig) and releases it when the point
// completes, so consecutive same-shape points (a β-sweep over one family)
// reuse the per-β workspace — CSR arrays, Gibbs scratch, Lanczos basis —
// instead of reallocating it. A nil sp analyzes with fresh allocations;
// results are bit-identical either way.
func DirectEvalScratch(st cluster.ReportStore, pool TokenPool, sp *scratch.Pool) Eval {
	return func(ctx context.Context, j *Job) (Outcome, error) {
		if st != nil {
			// The run ctx rides into peer-backed stores: cancelling the sweep
			// aborts an in-flight peer fetch instead of riding out its timeout.
			endGet := obs.StartSpan(ctx, obs.StageStoreGet)
			doc, ok := cluster.GetCtx(ctx, st, j.Key)
			endGet()
			if ok {
				return Outcome{Doc: doc, Source: SourceStore}, nil
			}
		}
		endBuild := obs.StartSpan(ctx, obs.StageBuild)
		prep, err := j.Prepared()
		endBuild()
		if err != nil {
			return Outcome{}, err
		}
		var rep *core.Report
		var aerr error
		run := func() {
			opts := j.Opts
			if pool != nil {
				extra, release := pool.TryExtra(linalg.ExtraWorkers(j.NumProfiles, pool.Workers()))
				defer release()
				opts.Parallel = linalg.ParallelConfig{Workers: 1 + extra}
			}
			ar := sp.Acquire()
			defer sp.Release(ar)
			opts.Parallel.Arena = ar
			rep, aerr = prep.AnalyzeCtx(ctx, j.Beta, opts)
		}
		if pool == nil {
			run()
		} else {
			pool.RunCtx(ctx, run)
		}
		if aerr != nil {
			return Outcome{}, aerr
		}
		doc := serialize.FromReport(rep, j.Spec.Game, j.Opts.Eps)
		if st != nil {
			// A failed write only costs durability (the store counts it);
			// the report itself is still good.
			endPut := obs.StartSpan(ctx, obs.StageStorePut)
			_ = st.Put(j.Key, doc)
			endPut()
		}
		return Outcome{Doc: doc, Source: SourceAnalyzed}, nil
	}
}

// EncodeJSON writes the aggregate table as indented JSON. The encoding is
// a pure function of the result, so re-running a grid against a warm store
// reproduces the bytes exactly.
func EncodeJSON(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// csvHeader is the fixed CSV column set.
var csvHeader = []string{
	"point", "game", "graph", "n", "m", "c", "beta", "eps", "key", "backend",
	"num_profiles", "mixing_time_exact", "mixing_time",
	"spectral_lower", "spectral_upper", "relaxation_time", "lambda_star",
	"min_eigenvalue", "lanczos_iterations", "spectral_converged",
	"delta_phi", "small_delta_phi", "zeta", "welfare_expected",
	"welfare_optimum", "welfare_worst_nash", "error",
}

func fmtF(f serialize.Float) string {
	return strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// EncodeCSV writes the aggregate table as CSV with a fixed header;
// non-finite floats are spelled NaN/+Inf/-Inf.
func EncodeCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range res.Rows {
		rec := []string{
			strconv.Itoa(r.Point), r.Game, r.Graph,
			strconv.Itoa(r.N), strconv.Itoa(r.M), strconv.Itoa(r.C),
			fmtF(r.Beta), fmtF(r.Eps), r.Key, r.Backend,
			strconv.Itoa(r.NumProfiles), strconv.FormatBool(r.MixingTimeExact),
			strconv.FormatInt(r.MixingTime, 10),
			fmtF(r.SpectralLower), fmtF(r.SpectralUpper),
			fmtF(r.RelaxationTime), fmtF(r.LambdaStar),
			fmtF(r.MinEigenvalue), strconv.Itoa(r.LanczosIterations),
			strconv.FormatBool(r.SpectralConverged),
			fmtF(r.DeltaPhi), fmtF(r.SmallDeltaPhi), fmtF(r.Zeta),
			fmtF(r.WelfareExpected), fmtF(r.WelfareOptimum), fmtF(r.WelfareWorst),
			r.Error,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TableString renders a compact human-readable aggregate table (the
// logitsweep CLI's default output).
func (res *Result) TableString() string {
	var b []byte
	app := func(s string) { b = append(b, s...) }
	app(fmt.Sprintf("%-5s %-12s %-8s %4s %8s  %-8s %10s %12s %12s %10s  %s\n",
		"point", "game", "graph", "n", "beta", "backend", "t_mix", "spec_lower", "spec_upper", "t_rel", "error"))
	for _, r := range res.Rows {
		tmix := "-"
		if r.MixingTimeExact {
			tmix = strconv.FormatInt(r.MixingTime, 10)
		}
		app(fmt.Sprintf("%-5d %-12s %-8s %4d %8.4g  %-8s %10s %12.5g %12.5g %10.4g  %s\n",
			r.Point, r.Game, r.Graph, r.N, float64(r.Beta), r.Backend, tmix,
			float64(r.SpectralLower), float64(r.SpectralUpper), float64(r.RelaxationTime), r.Error))
	}
	return string(b)
}

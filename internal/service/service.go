// Package service turns the logitdyn library into a long-running analysis
// system: an HTTP JSON API over internal/core with canonical game hashing,
// an LRU report cache with singleflight deduplication, and a bounded
// worker pool, so heavy traffic of structurally identical requests costs
// one eigendecomposition instead of one per caller.
//
// Endpoints:
//
//	POST /v1/analyze        one game spec → full analysis report
//	POST /v1/analyze/batch  a β-sweep or explicit request list, fanned out
//	POST /v1/simulate       trajectory sampling via logit.Dynamics
//	POST /v1/simulate/stream     the same simulation, streamed as SSE
//	GET  /v1/sweeps/{id}/stream  live SSE feed of a sweep job's rows
//	GET  /v1/peer/reports/{key}  raw store entry for sibling daemons
//	/v1/admin/store[...]    store inspection, prefix eviction, scrub
//	GET  /healthz           liveness
//	GET  /metrics           request counts, cache hit rate, in-flight work
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logitdyn/internal/cluster"
	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/journal"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/obs"
	"logitdyn/internal/rng"
	"logitdyn/internal/scratch"
	"logitdyn/internal/serialize"
	"logitdyn/internal/sim"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

// maxRequestBytes bounds request bodies; an explicit 4096-profile table
// game for 24 players is well under this.
const maxRequestBytes = 16 << 20

// Config tunes a Service.
type Config struct {
	// CacheSize is the report-cache capacity; 0 means 256.
	CacheSize int
	// Workers is the service-wide worker-token budget: the single semaphore
	// that bounds request concurrency AND intra-request parallelism
	// together (a request runs on one guaranteed token and borrows idle
	// tokens for its internal fan-out). 0 means GOMAXPROCS.
	Workers int
	// MaxBatch caps items per batch request; 0 means 256.
	MaxBatch int
	// MaxSweepPoints caps how many grid points one sweep job may expand to;
	// 0 means sweep.DefaultMaxPoints.
	MaxSweepPoints int
	// MaxSweepWorkers caps the point fan-out of each sweep job below the
	// pool budget, so one job leaves runner slots for its siblings even
	// before token priorities arbitrate. 0 means the full budget.
	MaxSweepWorkers int
	// MaxQueue is the admission threshold: while more than this many
	// acquirers are blocked waiting for worker tokens, new work-submitting
	// requests (analyze, batch, simulate, sweep POST) are refused with
	// 429 + Retry-After instead of queueing without bound. 0 disables
	// admission control.
	MaxQueue int
	// StreamBuffer is the per-subscriber SSE event buffer: how many
	// broadcast events a sweep-stream subscriber (or a simulate stream's
	// snapshot channel) may fall behind before it is dropped as lagged
	// (snapshots: before snapshots are skipped). 0 means 256.
	StreamBuffer int
	// Journal, when non-nil, persists queued/running sweep grids so a
	// restarted daemon can resume them (ReplayJournal); nil journals
	// nothing.
	Journal *journal.Journal
	// Limits bounds request sizes; the zero value means spec.DefaultLimits.
	Limits spec.Limits
	// Store, when non-nil, is the persistent second cache tier: memory
	// misses read through to it, and every completed analysis is written
	// back, so reports survive daemon restarts and sweeps resume for free.
	// Any cluster.ReportStore works: a plain *store.Store, a sharded
	// cluster.Ring, or a peer-backed cluster.Replicated.
	Store cluster.ReportStore
	// Obs is the observability layer (traces + stage histograms); nil means
	// a fresh enabled observer with the default trace-ring size. Pass
	// obs.Disabled() to turn instrumentation off entirely.
	Obs *obs.Observer
	// Logger receives structured request/job logs; nil discards them.
	Logger *slog.Logger
	// SlowRequest, when > 0, logs a warning for any request that takes at
	// least this long (with its trace id, so the spans are one GET away).
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.StreamBuffer == 0 {
		c.StreamBuffer = defaultStreamBuffer
	}
	if c.Limits == (spec.Limits{}) {
		c.Limits = spec.DefaultLimits()
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.DefaultRingSize)
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Service is the request-serving layer over core.Analyzer.
type Service struct {
	cfg   Config
	cache *Cache
	pool  *Pool
	// scratch hands each analysis a per-worker arena alongside its Run
	// token.
	scratch *scratch.Pool
	start   time.Time

	reqAnalyze, reqBatch, reqSimulate atomic.Uint64
	reqHealthz, reqMetrics, reqSweeps atomic.Uint64
	reqTraces, reqPeer, reqAdmin      atomic.Uint64
	analyses, simulations             atomic.Uint64
	// Per-backend analysis counters: which linear-algebra backend actually
	// ran each performed (non-cached) analysis.
	analysesDense, analysesSparse, analysesMatFree atomic.Uint64
	analysesFailed                                 atomic.Uint64
	// Store-tier counters: memory-cache misses served by the persistent
	// store vs misses that had to run an analysis.
	storeTierHits, storeTierMisses atomic.Uint64
	// Cluster counters: entries served to sibling daemons over the peer
	// surface (and the fetches that found nothing), and entries deleted
	// through the admin evict endpoint.
	peerServed, peerServedMisses atomic.Uint64
	adminEvicted                 atomic.Uint64

	// Admission control and journal recovery.
	admissionRejected atomic.Uint64
	journalReplays    atomic.Uint64

	// Streaming counters: open SSE connections, streams opened since boot,
	// frames written, and the two slow-consumer outcomes (sweep subscribers
	// dropped as lagged; simulate snapshots skipped). sweepLongPolls counts
	// GET ?wait= requests that parked.
	streamsActive                 atomic.Int64
	sweepStreams, simulateStreams atomic.Uint64
	streamEvents                  atomic.Uint64
	streamsLagged                 atomic.Uint64
	streamSnapshotsDropped        atomic.Uint64
	sweepLongPolls                atomic.Uint64

	// Async sweep jobs, keyed by id.
	sweepMu  sync.Mutex
	sweeps   map[string]*sweepJob
	sweepSeq atomic.Uint64
}

// classKey carries the scheduling Class through a request context; absent
// means ClassInteractive, so only the sweep path has to opt in.
type classKey struct{}

func withClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

func classFrom(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return ClassInteractive
}

// admit applies queue-depth backpressure: when the token queue is deeper
// than Config.MaxQueue, the request is refused with 429 and a Retry-After
// estimate (queue depth over worker budget, in seconds, floored at 1)
// instead of joining a line it would wait in anyway. Returns false when
// the request was refused. Status/probe endpoints are never gated — only
// handlers that submit work call this.
func (s *Service) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.MaxQueue <= 0 {
		return true
	}
	waiting := s.pool.Waiting()
	if waiting <= int64(s.cfg.MaxQueue) {
		return true
	}
	s.admissionRejected.Add(1)
	retry := (waiting + int64(s.pool.Workers()) - 1) / int64(s.pool.Workers())
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("server overloaded: %d requests queued (limit %d)", waiting, s.cfg.MaxQueue))
	return false
}

// New builds a Service from the config.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheSize),
		pool:    NewPool(cfg.Workers),
		scratch: scratch.NewPool(),
		start:   time.Now(),
		sweeps:  make(map[string]*sweepJob),
	}
}

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/simulate/stream", s.handleSimulateStream)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepCreate)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepDelete)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/peer/reports/{key}", s.handlePeerReport)
	mux.HandleFunc("GET /v1/admin/store", s.handleAdminStore)
	mux.HandleFunc("GET /v1/admin/store/keys", s.handleAdminStoreKeys)
	mux.HandleFunc("DELETE /v1/admin/store/keys", s.handleAdminStoreEvict)
	mux.HandleFunc("POST /v1/admin/store/scrub", s.handleAdminStoreScrub)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// instrument sits outside recoverJSON so the request timer and trace
	// status see panics as the 500s they become, not as vanished requests.
	return s.instrument(recoverJSON(mux))
}

// recoverJSON converts any handler panic into a JSON 500 instead of a
// dropped connection; known constructor panics are already converted to
// 400s further down.
func recoverJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusWriter records the response status for the request timer and log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// (and friends) through this wrapper — the SSE handlers flush per event.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// endpointOf maps a request to its metric label — a small fixed set so the
// per-endpoint histograms and counters have bounded cardinality whatever
// paths clients probe.
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/analyze":
		return "analyze"
	case p == "/v1/analyze/batch":
		return "batch"
	case p == "/v1/simulate":
		return "simulate"
	case p == "/v1/simulate/stream":
		return "simulate_stream"
	case strings.HasPrefix(p, "/v1/sweeps") && strings.HasSuffix(p, "/stream"):
		return "sweep_stream"
	case strings.HasPrefix(p, "/v1/sweeps"):
		return "sweeps"
	case strings.HasPrefix(p, "/v1/traces"):
		return "traces"
	case strings.HasPrefix(p, "/v1/peer/"):
		return "peer"
	case strings.HasPrefix(p, "/v1/admin/"):
		return "admin"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// instrument is the outermost middleware: it mints a trace per request
// (work endpoints only — probes would churn the ring), threads the
// observer through the request context, times the request into a
// per-endpoint histogram, and logs completion — at warn level with the
// trace id when the request exceeded the slow threshold.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointOf(r)
		var tr *obs.Trace
		switch ep {
		case "healthz", "metrics", "traces", "peer", "admin":
			// Probe, peer and admin endpoints are timed but not traced: peer
			// fetches and store inspection would churn the ring that exists
			// to explain analysis latency.
		default:
			tr = s.cfg.Obs.StartTrace("http")
			tr.SetAttr("endpoint", ep)
			tr.SetAttr("method", r.Method)
			tr.SetAttr("path", r.URL.Path)
		}
		if id := tr.ID(); id != "" {
			// The header (not the body) carries the trace id: response
			// bodies stay byte-identical with instrumentation off.
			w.Header().Set("X-Trace-Id", id)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(obs.With(r.Context(), s.cfg.Obs, tr)))
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.SetAttr("status", strconv.Itoa(status))
		tr.Finish(strconv.Itoa(status))
		s.cfg.Obs.Observe("request:"+ep, dur)
		slow := s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest
		lvl := slog.LevelDebug
		msg := "request"
		if slow {
			lvl, msg = slog.LevelWarn, "slow request"
		}
		s.cfg.Logger.Log(r.Context(), lvl, msg,
			"trace_id", tr.ID(), "endpoint", ep, "method", r.Method,
			"path", r.URL.Path, "status", status,
			"duration_ms", float64(dur.Nanoseconds())/1e6)
	})
}

// writeJSONCtx is writeJSON timed as the response's serialize stage.
func writeJSONCtx(ctx context.Context, w http.ResponseWriter, status int, v any) {
	end := obs.StartSpan(ctx, obs.StageSerialize)
	writeJSON(w, status, v)
	end()
}

// AnalyzeRequest asks for the full analysis of one (game, β) pair. The
// game comes from exactly one of Spec (a named family) or Game (an
// explicit table document).
type AnalyzeRequest struct {
	Spec *spec.Spec         `json:"spec,omitempty"`
	Game *serialize.GameDoc `json:"game,omitempty"`
	// Name labels the report; defaults to the spec's family name.
	Name string  `json:"name,omitempty"`
	Beta float64 `json:"beta"`
	// Eps is the total-variation target; 0 means the paper's 1/4.
	Eps float64 `json:"eps,omitempty"`
	// MaxT caps the measurable mixing time; 0 means effectively unbounded.
	MaxT int64 `json:"max_t,omitempty"`
	// Backend selects the linear-algebra backend: "auto" (default; dense
	// up to the dense profile cap, sparse Lanczos above it), "dense",
	// "sparse" or "matfree". The sparse and matfree caps admit profile
	// spaces far beyond the dense limit; the response reports which
	// backend ran.
	Backend string `json:"backend,omitempty"`
}

// AnalyzeResponse wraps the report with its cache identity.
type AnalyzeResponse struct {
	// Key is the canonical content hash the report is cached under.
	Key string `json:"key"`
	// Cached reports whether this call was served without running a new
	// analysis (memory hit or singleflight join).
	Cached bool                `json:"cached"`
	Report serialize.ReportDoc `json:"report"`
}

// BatchRequest fans many analyses out across the worker pool. Either
// Items lists explicit requests, or Spec/Game plus Betas describes a
// β-sweep of one game; results always come back in input order.
type BatchRequest struct {
	Items []AnalyzeRequest `json:"items,omitempty"`

	Spec    *spec.Spec         `json:"spec,omitempty"`
	Game    *serialize.GameDoc `json:"game,omitempty"`
	Name    string             `json:"name,omitempty"`
	Betas   []float64          `json:"betas,omitempty"`
	Eps     float64            `json:"eps,omitempty"`
	MaxT    int64              `json:"max_t,omitempty"`
	Backend string             `json:"backend,omitempty"`
}

// BatchItemResult is one slot of a batch response; exactly one of Error
// or the response fields is meaningful.
type BatchItemResult struct {
	*AnalyzeResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse lists per-item results in input order.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
}

// SimulateRequest samples logit-dynamics trajectories.
type SimulateRequest struct {
	Spec *spec.Spec         `json:"spec,omitempty"`
	Game *serialize.GameDoc `json:"game,omitempty"`
	Name string             `json:"name,omitempty"`
	Beta float64            `json:"beta"`
	// Steps is the per-replica trajectory length.
	Steps int `json:"steps"`
	// Replicas is how many independent trajectories to pool; 0 means 1.
	// Replica r's RNG stream derives from (Seed, r), and replica counts
	// merge by integer addition, so the response depends only on the
	// request — never on the server's worker count.
	Replicas int `json:"replicas,omitempty"`
	// Seed makes the trajectories reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Start is the initial profile; nil means all-zeros.
	Start []int `json:"start,omitempty"`
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// buildSafely runs a game constructor, converting constructor panics
// (graph.Ring on n < 3, negative random-potential scales, …) into request
// errors instead of dropped connections.
func buildSafely(build func() (game.Game, error)) (game.Game, error) {
	return spec.SafeBuild(build)
}

// buildGame resolves the request's game source against the limits of the
// requested backend (the sparse/matfree caps admit much larger profile
// spaces than the dense one). It never mutates its arguments: batch items
// may share one doc across concurrently-running goroutines.
func (s *Service) buildGame(sp *spec.Spec, doc *serialize.GameDoc, name, backend string) (game.Game, string, error) {
	// Normalize before the cap checks: an empty backend means auto, which
	// may route to sparse and therefore deserves the sparse cap.
	b, err := logit.ParseBackend(backend)
	if err != nil {
		return nil, "", err
	}
	backend = string(b)
	switch {
	case sp != nil && doc != nil:
		return nil, "", errors.New("give either \"spec\" or \"game\", not both")
	case sp != nil:
		if err := s.cfg.Limits.CheckSpecFor(*sp, backend); err != nil {
			return nil, "", err
		}
		g, err := buildSafely(sp.Build)
		if err != nil {
			return nil, "", err
		}
		if err := s.cfg.Limits.CheckGameFor(g, backend); err != nil {
			return nil, "", err
		}
		if name == "" {
			name = sp.Game
		}
		return g, name, nil
	case doc != nil:
		if err := s.cfg.Limits.CheckSizesFor(doc.Sizes, backend); err != nil {
			return nil, "", err
		}
		d := *doc
		if d.Version == 0 {
			d.Version = serialize.Version
		}
		g, err := buildSafely(func() (game.Game, error) { return d.Build() })
		if err != nil {
			return nil, "", err
		}
		if name == "" {
			name = d.Name
		}
		return g, name, nil
	default:
		return nil, "", errors.New("missing game: give \"spec\" or \"game\"")
	}
}

// analyzeOne serves one analysis through the cache, pool and singleflight
// layers.
func (s *Service) analyzeOne(ctx context.Context, req AnalyzeRequest) (*AnalyzeResponse, error) {
	g, name, err := s.buildGame(req.Spec, req.Game, req.Name, req.Backend)
	if err != nil {
		return nil, err
	}
	// Materialize once and analyze the table, so the digest and the
	// analysis don't each re-evaluate every lazy utility.
	table := s.materialize(ctx, g)
	return s.analyzeBuilt(ctx, core.Prepare(table), store.GameDigest(table), name, req.Beta, req.Eps, req.MaxT, req.Backend)
}

// borrowFor sizes and takes an extra-token loan for a task with n
// shardable units (profiles, replicas): at most one extra per unit beyond
// the inline threshold's reach — a task too small to feed extra workers
// borrows nothing — and never more than the budget minus the caller's own
// token. The loan carries the context's scheduling class, so sweep-point
// fan-out borrows at sweep priority (leaving interactive headroom) while
// live requests borrow at interactive priority. It returns the resulting
// worker budget and the release function (always non-nil; call it when
// the parallel section ends).
func (s *Service) borrowFor(ctx context.Context, n int) (par linalg.ParallelConfig, release func()) {
	got, release := s.pool.TryExtraClass(classFrom(ctx), linalg.ExtraWorkers(n, s.pool.Workers()))
	return linalg.ParallelConfig{Workers: 1 + got}, release
}

// materialize tabulates a request's game on borrowed worker tokens: the
// handler holds no Run token at this point, so every goroutine it spawns
// must come out of the shared budget. A denied borrow tabulates serially.
func (s *Service) materialize(ctx context.Context, g game.Game) *game.TableGame {
	end := obs.StartSpan(ctx, obs.StageBuild)
	defer end()
	par, release := s.borrowFor(ctx, game.SpaceOf(g).Size())
	defer release()
	return game.MaterializePar(g, par)
}

// evalSource says which tier served an analysis.
type evalSource string

const (
	sourceMemory   evalSource = "memory"   // LRU hit or singleflight join
	sourceStore    evalSource = "store"    // persistent-store read-through
	sourceAnalyzed evalSource = "analyzed" // a fresh analysis ran
)

// analyzeBuilt is the shared serving path once the game is built,
// prepared and digested; β-sweeps reuse one Prepared and one digest
// across all their items.
func (s *Service) analyzeBuilt(ctx context.Context, prep *core.Prepared, digest [32]byte, name string, beta, eps float64, maxT int64, backend string) (*AnalyzeResponse, error) {
	resp, _, err := s.analyzeBuiltTier(ctx, prep, digest, name, beta, eps, maxT, backend)
	return resp, err
}

// analyzeBuiltTier is analyzeBuilt plus tier attribution: the lookup walks
// LRU → persistent store → fresh analysis, and reports which tier
// answered.
func (s *Service) analyzeBuiltTier(ctx context.Context, prep *core.Prepared, digest [32]byte, name string, beta, eps float64, maxT int64, backend string) (*AnalyzeResponse, evalSource, error) {
	if err := s.cfg.Limits.CheckBeta(beta); err != nil {
		return nil, "", err
	}
	// Resolve auto before keying: an omitted backend and the explicit
	// backend it resolves to are the same analysis (the fixed Lanczos seed
	// makes the reports bit-identical), so they must share one cache slot.
	b, err := logit.ParseBackend(backend)
	if err != nil {
		return nil, "", err
	}
	size := game.SpaceOf(prep.Game()).Size()
	resolved := b.Resolve(size, s.cfg.Limits.MaxProfiles)
	opts := core.Options{
		Eps:            eps,
		MaxT:           maxT,
		MaxExactStates: s.cfg.Limits.MaxProfiles,
		Backend:        string(resolved),
	}.Normalized()
	if err := opts.Validate(); err != nil {
		return nil, "", err
	}
	// The cache key is derived before the worker budget is known: the
	// budget never changes the report (linalg's parallel reductions use
	// fixed block boundaries), so Parallel must not split cache slots.
	key := store.KeyFrom(digest, beta, opts)
	// fromStore/missed are written at most once, by the one goroutine
	// singleflight lets into the miss function (Do runs it inline), and
	// read only after Do returns.
	fromStore := false
	missed := false
	// endLookup is called only when the memory tier answered (hit or
	// singleflight join) — on a miss the "lookup" would span the whole
	// analysis, which the stages inside the miss function already cover.
	endLookup := obs.StartSpan(ctx, obs.StageCacheLookup)
	rep, cached, err := s.cache.Do(key, func() (*core.Report, error) {
		missed = true
		// Memory miss: the persistent store is the second tier. A stored
		// report is decode-validated (fail-closed) before it is trusted.
		if s.cfg.Store != nil {
			// GetCtx: a cancelled request abandons its peer fetch instead of
			// holding the singleflight slot for the full peer timeout.
			endGet := obs.StartSpan(ctx, obs.StageStoreGet)
			doc, ok := cluster.GetCtx(ctx, s.cfg.Store, key)
			endGet()
			if ok {
				s.storeTierHits.Add(1)
				fromStore = true
				return doc.Report(), nil
			}
			s.storeTierMisses.Add(1)
		}
		var rep *core.Report
		var aerr error
		// The context's class decides queue priority: live requests run
		// interactive (the default), daemon sweep points run ClassSweep and
		// wait behind any queued interactive request — point-granularity
		// preemption, since each point re-acquires here.
		s.pool.RunClassCtx(ctx, classFrom(ctx), func() {
			// Borrow idle tokens for intra-request parallelism, sized by
			// the profile space (holding tokens a small game cannot use
			// would starve request-level concurrency). The one Run token
			// guarantees progress, so a denied borrow degrades speed,
			// never liveness.
			par, release := s.borrowFor(ctx, size)
			defer release()
			// The arena rides the Run token: one analysis owns it until the
			// closure returns, then Release resets and parks it for the next
			// same-shape analysis. Never affects the report (see
			// core.Options.Parallel).
			ar := s.scratch.Acquire()
			defer s.scratch.Release(ar)
			runOpts := opts
			runOpts.Parallel = par
			runOpts.Parallel.Arena = ar
			rep, aerr = prep.AnalyzeCtx(ctx, beta, runOpts)
		})
		if aerr != nil {
			s.analysesFailed.Add(1)
			return rep, fmt.Errorf("%w: %v", errAnalysis, aerr)
		}
		// Count completed analyses only, so the per-backend split always
		// sums to the total.
		s.analyses.Add(1)
		s.countBackend(rep.Backend)
		// Write-through: persistence failures only cost durability, never
		// the response (the store counts them).
		if s.cfg.Store != nil {
			endPut := obs.StartSpan(ctx, obs.StageStorePut)
			_ = s.cfg.Store.Put(key, serialize.FromReport(rep, name, opts.Eps))
			endPut()
		}
		return rep, nil
	})
	if !missed {
		endLookup()
	}
	if err != nil {
		return nil, "", err
	}
	src := sourceAnalyzed
	switch {
	case cached:
		src = sourceMemory
	case fromStore:
		src = sourceStore
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.SetAttr("backend", rep.Backend)
		tr.SetAttr("profiles", strconv.Itoa(size))
		tr.SetAttr("source", string(src))
	}
	return &AnalyzeResponse{
		Key: key,
		// Cached covers every tier that skipped the analysis: memory hit,
		// singleflight join, or persistent-store read-through.
		Cached: cached || fromStore,
		Report: serialize.FromReport(rep, name, opts.Eps),
	}, src, nil
}

// countBackend attributes one performed analysis to the backend that ran.
func (s *Service) countBackend(backend string) {
	switch logit.Backend(backend) {
	case logit.BackendDense:
		s.analysesDense.Add(1)
	case logit.BackendSparse:
		s.analysesSparse.Add(1)
	case logit.BackendMatFree:
		s.analysesMatFree.Add(1)
	}
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reqAnalyze.Add(1)
	if !s.admit(w, r) {
		return
	}
	var req AnalyzeRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.analyzeOne(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSONCtx(r.Context(), w, http.StatusOK, resp)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reqBatch.Add(1)
	if !s.admit(w, r) {
		return
	}
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) > 0 && (req.Spec != nil || req.Game != nil || len(req.Betas) > 0) {
		writeError(w, http.StatusBadRequest,
			errors.New("give either \"items\" or a sweep (\"spec\"/\"game\" + \"betas\"), not both"))
		return
	}
	if n := max(len(req.Items), len(req.Betas)); n > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the limit %d", n, s.cfg.MaxBatch))
		return
	}

	// sim.Map returns results in input order regardless of scheduling; the
	// pool semaphore inside the analyze path is the real concurrency bound.
	var results []BatchItemResult
	switch {
	case len(req.Items) > 0:
		results = sim.Map(req.Items, 0, s.pool.Workers(), func(_ int, it AnalyzeRequest, _ *rng.RNG) BatchItemResult {
			resp, err := s.analyzeOne(r.Context(), it)
			if err != nil {
				return BatchItemResult{Error: err.Error()}
			}
			return BatchItemResult{AnalyzeResponse: resp}
		})
	case len(req.Betas) > 0:
		// A β-sweep shares one game: build, materialize, digest and prepare
		// it once instead of once per β. The table and its facts are
		// read-only once computed, so concurrent analyses can share them.
		g, name, err := s.buildGame(req.Spec, req.Game, req.Name, req.Backend)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		table := s.materialize(r.Context(), g)
		digest := store.GameDigest(table)
		prep := core.Prepare(table)
		results = sim.Map(req.Betas, 0, s.pool.Workers(), func(_ int, beta float64, _ *rng.RNG) BatchItemResult {
			resp, err := s.analyzeBuilt(r.Context(), prep, digest, name, beta, req.Eps, req.MaxT, req.Backend)
			if err != nil {
				return BatchItemResult{Error: err.Error()}
			}
			return BatchItemResult{AnalyzeResponse: resp}
		})
	default:
		writeError(w, http.StatusBadRequest, errors.New("empty batch: give \"items\" or \"betas\""))
		return
	}
	writeJSONCtx(r.Context(), w, http.StatusOK, BatchResponse{Results: results})
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.reqSimulate.Add(1)
	if !s.admit(w, r) {
		return
	}
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	doc, err := s.simulate(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSONCtx(r.Context(), w, http.StatusOK, doc)
}

// simPrep is a validated simulation ready to run: the built dynamics, the
// resolved start profile and replica count, and the response-document
// shell the run fills in. Both the batch and the streaming endpoint run
// from the same prep, which is what keeps their documents byte-identical.
type simPrep struct {
	d        *logit.Dynamics
	start    []int
	steps    int
	replicas int
	seed     uint64
	doc      *serialize.SimulationDoc
}

// prepareSimulation validates a simulate request and builds its dynamics
// and document shell. No worker token is held here.
func (s *Service) prepareSimulation(req SimulateRequest) (*simPrep, error) {
	if err := s.cfg.Limits.CheckBeta(req.Beta); err != nil {
		return nil, err
	}
	replicas := req.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if err := s.cfg.Limits.CheckSimulation(req.Steps, replicas); err != nil {
		return nil, err
	}
	// Simulation never materializes a matrix, so the sparse caps govern.
	g, name, err := s.buildGame(req.Spec, req.Game, req.Name, string(logit.BackendSparse))
	if err != nil {
		return nil, err
	}
	d, err := logit.New(g, req.Beta)
	if err != nil {
		return nil, err
	}
	space := d.Space()
	start := req.Start
	if start == nil {
		start = make([]int, space.Players())
	}
	if err := space.CheckProfile(start); err != nil {
		return nil, fmt.Errorf("start %w", err)
	}
	doc := &serialize.SimulationDoc{
		Version: serialize.Version,
		Game:    name,
		Beta:    serialize.Float(req.Beta),
		Steps:   req.Steps,
		// Echo the request's replicas verbatim: an omitted field stays
		// omitted (0 means 1), so pre-replica requests get byte-identical
		// response documents.
		Replicas:    req.Replicas,
		Seed:        req.Seed,
		NumProfiles: space.Size(),
		Start:       start,
	}
	return &simPrep{d: d, start: start, steps: req.Steps, replicas: replicas, seed: req.Seed, doc: doc}, nil
}

// finishSimulationDoc folds the visit counts into the prepared document:
// empirical occupancy (elided above the dense cap, mirroring the analyze
// path's payload policy) and the TV-to-Gibbs summary. Caller holds a
// worker token.
func (s *Service) finishSimulationDoc(p *simPrep, counts []int64, par linalg.ParallelConfig) {
	emp := make([]float64, len(counts))
	visits := float64(p.replicas) * float64(p.steps+1)
	for i, c := range counts {
		emp[i] = float64(c) / visits
	}
	if p.d.Space().Size() <= s.cfg.Limits.MaxProfiles {
		p.doc.Empirical = emp
	}
	// The TV-to-Gibbs check tabulates a full potential table; its scratch
	// comes from the same per-token arena the analyze path uses. The
	// measure itself is freshly allocated, so nothing arena-backed
	// outlives the release.
	par.Arena = s.scratch.Acquire()
	defer s.scratch.Release(par.Arena)
	if gibbs, gerr := p.d.GibbsPar(par); gerr == nil {
		p.doc.TVGibbs = serialize.Float(markov.TVDistance(emp, gibbs))
	} else {
		p.doc.TVGibbs = serialize.Float(math.NaN())
	}
}

func (s *Service) simulate(ctx context.Context, req SimulateRequest) (*serialize.SimulationDoc, error) {
	p, err := s.prepareSimulation(req)
	if err != nil {
		return nil, err
	}
	s.pool.RunClassCtx(ctx, classFrom(ctx), func() {
		endSim := obs.StartSpan(ctx, obs.StageSimulate)
		defer endSim()
		s.simulations.Add(1)
		// Replicas fan out on borrowed worker tokens. Unlike borrowFor's
		// per-row sizing, every single replica can saturate a worker, so
		// the loan is capped at one extra per additional replica. Counts
		// merge by integer addition, so the document is bit-identical
		// whatever the server's worker budget happens to be.
		extra, release := s.pool.TryExtraClass(classFrom(ctx), min(s.pool.Workers()-1, p.replicas-1))
		defer release()
		par := linalg.ParallelConfig{Workers: 1 + extra}
		w := p.d.NewWalker(p.steps, p.replicas, par)
		var counts []int64
		if p.replicas == 1 {
			// The historical single-trajectory stream (rng.New(seed)
			// directly, matching logitsim and pre-replica requests), so
			// legacy requests keep reproducing the same trajectory.
			counts = make([]int64, p.d.Space().Size())
			w.Walk(counts, p.start, p.steps, rng.New(p.seed), 0, nil)
		} else {
			counts = sim.SumCounts(p.replicas, p.seed, par.Workers, p.d.Space().Size(),
				func(_ int, r *rng.RNG, acc []int64) {
					w.Walk(acc, p.start, p.steps, r, 0, nil)
				})
		}
		s.finishSimulationDoc(p, counts, par)
	})
	return p.doc, nil
}

// HealthDoc answers /healthz: liveness plus enough build identity to tell
// which binary is running without shelling into the host.
type HealthDoc struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version,omitempty"`
	// Revision/Modified come from the VCS stamp when the binary was built
	// from a checkout; empty under plain `go test` builds.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reqHealthz.Add(1)
	id := buildIdentity()
	writeJSON(w, http.StatusOK, HealthDoc{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     id.goVersion,
		Revision:      id.revision,
		Modified:      id.modified,
	})
}

// RequestMetrics counts requests per endpoint.
type RequestMetrics struct {
	Analyze  uint64 `json:"analyze"`
	Batch    uint64 `json:"batch"`
	Simulate uint64 `json:"simulate"`
	Sweeps   uint64 `json:"sweeps"`
	Traces   uint64 `json:"traces"`
	Healthz  uint64 `json:"healthz"`
	Metrics  uint64 `json:"metrics"`
	// Peer counts sibling-daemon entry fetches served; Admin counts store
	// inspection/eviction/scrub calls.
	Peer  uint64 `json:"peer"`
	Admin uint64 `json:"admin"`
}

// StoreTierMetrics describes the persistent second cache tier: how often
// memory misses were served from disk vs had to analyze, plus the store's
// own counters.
type StoreTierMetrics struct {
	// Hits counts memory-cache misses the store answered without a new
	// analysis; Misses counts memory misses that went on to analyze.
	Hits   uint64        `json:"hits"`
	Misses uint64        `json:"misses"`
	Store  store.Metrics `json:"store"`
	// Peer is the peer-fetch tier (per-peer counters plus replication
	// totals); omitted when the daemon has no peers configured.
	Peer *cluster.PeerMetrics `json:"peer,omitempty"`
	// ServedToPeers / ServedToPeersMissed count the other direction: entry
	// fetches sibling daemons made against this daemon's peer surface.
	ServedToPeers       uint64 `json:"served_to_peers"`
	ServedToPeersMissed uint64 `json:"served_to_peers_missed"`
	// AdminEvicted counts entries deleted through the admin evict endpoint.
	AdminEvicted uint64 `json:"admin_evicted"`
}

// WorkMetrics counts heavy work through the pool.
type WorkMetrics struct {
	// AnalysesPerformed counts completed analysis runs; cache hits,
	// singleflight joins and failed runs do not increment it.
	AnalysesPerformed uint64 `json:"analyses_performed"`
	// AnalysesByBackend splits the performed analyses by the
	// linear-algebra backend that ran (dense eigendecomposition vs the
	// sparse/matfree Lanczos routes); the three always sum to
	// AnalysesPerformed.
	AnalysesByBackend BackendMetrics `json:"analyses_by_backend"`
	// AnalysesFailed counts analysis attempts that errored.
	AnalysesFailed uint64 `json:"analyses_failed"`
	Simulations    uint64 `json:"simulations"`
	InFlight       int64  `json:"in_flight"`
	Workers        int    `json:"workers"`
	// QueueDepth is how many requests are blocked waiting for a worker
	// token right now; TokensInUse is the semaphore occupancy (Run tokens
	// plus borrowed extras). Together they say whether latency is queueing
	// or computing.
	QueueDepth  int64 `json:"queue_depth"`
	TokensInUse int   `json:"worker_tokens_in_use"`
	// Per-class queue depths: how much of QueueDepth is latency-sensitive
	// interactive traffic vs background sweep points. A deep sweep queue
	// with an empty interactive one is the scheduler working as designed.
	QueueDepthInteractive int64 `json:"queue_depth_interactive"`
	QueueDepthSweep       int64 `json:"queue_depth_sweep"`
	// SweepPointsPreempted counts token handoffs that served a waiting
	// interactive request while sweep points were queued behind it —
	// point-granularity preemptions.
	SweepPointsPreempted uint64 `json:"sweep_points_preempted_total"`
	// AdmissionRejected counts requests refused with 429 by queue-depth
	// backpressure (Config.MaxQueue).
	AdmissionRejected uint64 `json:"admission_rejected_total"`
	// Worker-utilization counters for the single worker-token pool:
	// ParallelExtraInUse is how many extra tokens intra-request parallelism
	// holds right now; the Granted/Denied totals say how often fan-out got
	// the workers it asked for. High denied counts mean the budget
	// saturates on request concurrency alone.
	ParallelExtraInUse   int64  `json:"parallel_extra_in_use"`
	ParallelExtraGranted uint64 `json:"parallel_extra_granted_total"`
	ParallelExtraDenied  uint64 `json:"parallel_extra_denied_total"`
}

// StreamMetrics counts the live surface: SSE streams, the events they
// carried, and the slow-consumer outcomes.
type StreamMetrics struct {
	// Active is how many SSE connections are open right now.
	Active int64 `json:"active"`
	// SweepStreams / SimulateStreams count streams opened since boot.
	SweepStreams    uint64 `json:"sweep_streams_total"`
	SimulateStreams uint64 `json:"simulate_streams_total"`
	// EventsSent counts SSE frames written: rows, progress, snapshots,
	// results, lagged and terminal status events all included.
	EventsSent uint64 `json:"events_sent_total"`
	// Lagged counts sweep subscribers dropped for falling behind their
	// buffer; SnapshotsDropped counts simulate-stream snapshots skipped
	// for the same reason (that stream survives — snapshots are samples).
	Lagged           uint64 `json:"lagged_total"`
	SnapshotsDropped uint64 `json:"snapshots_dropped_total"`
	// LongPolls counts GET /v1/sweeps/{id}?wait= requests that parked.
	LongPolls uint64 `json:"long_polls_total"`
}

// JournalMetrics is the sweep-job journal's state plus the service-level
// replay counter.
type JournalMetrics struct {
	journal.Metrics
	// Replays counts journaled jobs resumed by ReplayJournal since boot.
	Replays uint64 `json:"replays_total"`
}

// BackendMetrics counts performed analyses per backend.
type BackendMetrics struct {
	Dense   uint64 `json:"dense"`
	Sparse  uint64 `json:"sparse"`
	MatFree uint64 `json:"matfree"`
}

// MetricsDoc is the /metrics response. Cache is the in-memory tier; Store
// is the persistent tier (nil when the daemon runs without one).
type MetricsDoc struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      RequestMetrics    `json:"requests"`
	Cache         CacheMetrics      `json:"cache"`
	Store         *StoreTierMetrics `json:"store,omitempty"`
	Work          WorkMetrics       `json:"work"`
	Sweeps        SweepGauges       `json:"sweep_jobs"`
	// Streams is the live SSE/long-poll surface.
	Streams StreamMetrics `json:"streams"`
	// Journal is the persistent sweep-job journal's state (live entries,
	// record/remove/replay counters); omitted when no journal is attached.
	Journal *JournalMetrics `json:"journal,omitempty"`
	// Scratch is the per-worker arena pool's state (checkout hit rate,
	// outstanding vs retained bytes).
	Scratch scratch.Metrics `json:"scratch"`
	// Observability is the stage-latency histograms and trace-ring state;
	// omitted when the observer is disabled.
	Observability *obs.MetricsDoc `json:"observability,omitempty"`
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() MetricsDoc {
	var storeTier *StoreTierMetrics
	if s.cfg.Store != nil {
		storeTier = &StoreTierMetrics{
			Hits:                s.storeTierHits.Load(),
			Misses:              s.storeTierMisses.Load(),
			Store:               s.cfg.Store.Metrics(),
			ServedToPeers:       s.peerServed.Load(),
			ServedToPeersMissed: s.peerServedMisses.Load(),
			AdminEvicted:        s.adminEvicted.Load(),
		}
		if rep, ok := s.cfg.Store.(*cluster.Replicated); ok {
			pm := rep.PeerMetrics()
			storeTier.Peer = &pm
		}
	}
	var obsDoc *obs.MetricsDoc
	if s.cfg.Obs.Enabled() {
		d := s.cfg.Obs.Snapshot()
		obsDoc = &d
	}
	var journalDoc *JournalMetrics
	if s.cfg.Journal != nil {
		journalDoc = &JournalMetrics{
			Metrics: s.cfg.Journal.Metrics(),
			Replays: s.journalReplays.Load(),
		}
	}
	return MetricsDoc{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests: RequestMetrics{
			Analyze:  s.reqAnalyze.Load(),
			Batch:    s.reqBatch.Load(),
			Simulate: s.reqSimulate.Load(),
			Sweeps:   s.reqSweeps.Load(),
			Traces:   s.reqTraces.Load(),
			Healthz:  s.reqHealthz.Load(),
			Metrics:  s.reqMetrics.Load(),
			Peer:     s.reqPeer.Load(),
			Admin:    s.reqAdmin.Load(),
		},
		Cache:  s.cache.Metrics(),
		Store:  storeTier,
		Sweeps: s.sweepGauges(),
		Streams: StreamMetrics{
			Active:           s.streamsActive.Load(),
			SweepStreams:     s.sweepStreams.Load(),
			SimulateStreams:  s.simulateStreams.Load(),
			EventsSent:       s.streamEvents.Load(),
			Lagged:           s.streamsLagged.Load(),
			SnapshotsDropped: s.streamSnapshotsDropped.Load(),
			LongPolls:        s.sweepLongPolls.Load(),
		},
		Journal:       journalDoc,
		Scratch:       s.scratch.Metrics(),
		Observability: obsDoc,
		Work: WorkMetrics{
			AnalysesPerformed: s.analyses.Load(),
			AnalysesByBackend: BackendMetrics{
				Dense:   s.analysesDense.Load(),
				Sparse:  s.analysesSparse.Load(),
				MatFree: s.analysesMatFree.Load(),
			},
			AnalysesFailed:        s.analysesFailed.Load(),
			Simulations:           s.simulations.Load(),
			InFlight:              s.pool.InFlight(),
			Workers:               s.pool.Workers(),
			QueueDepth:            s.pool.Waiting(),
			TokensInUse:           s.pool.TokensInUse(),
			QueueDepthInteractive: s.pool.WaitingClass(ClassInteractive),
			QueueDepthSweep:       s.pool.WaitingClass(ClassSweep),
			SweepPointsPreempted:  s.pool.Preempted(),
			AdmissionRejected:     s.admissionRejected.Load(),
			ParallelExtraInUse:    s.pool.Borrowed(),
			ParallelExtraGranted:  s.pool.ExtraGranted(),
			ParallelExtraDenied:   s.pool.ExtraDenied(),
		},
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reqMetrics.Add(1)
	if r.URL.Query().Get("format") == "prometheus" {
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// statusFor maps analysis failures to 422 (the request was well-formed but
// the analysis could not run) and everything else to 400.
func statusFor(err error) int {
	if errors.Is(err, errAnalysis) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

var errAnalysis = errors.New("analysis failed")

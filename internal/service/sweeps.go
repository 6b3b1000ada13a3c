// The async sweep job API: POST /v1/sweeps starts a grid sweep as a
// background job that evaluates every point through the service's own
// cache → store → analyze tiers (so sweeps share the worker-token budget
// with live traffic and warm both cache tiers for it), GET streams status
// and partial results, DELETE cancels. Jobs run at sweep priority: every
// point acquires its worker token behind any waiting interactive request,
// so a saturating sweep yields to live traffic at point granularity.
// Jobs live for the daemon's lifetime; the persistent store is what makes
// their results survive restarts, and the job journal (Config.Journal)
// is what makes the jobs themselves survive — queued/running grids are
// journaled on POST, removed on terminal transition, and replayed by
// ReplayJournal on the next boot, where the warm store turns recovery
// into store reads plus only the missing analyses.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"logitdyn/internal/obs"
	"logitdyn/internal/serialize"
	"logitdyn/internal/sweep"
)

// progressWindow is how many recent point-completion timestamps a job
// keeps for its rolling rate/ETA estimate.
const progressWindow = 64

// sweepJob is one background sweep run.
type sweepJob struct {
	id      string
	created time.Time
	cancel  context.CancelFunc
	// trace is the job's trace (nil with observability off); its ID links
	// a status document to the job's stage spans at /v1/traces/{id}.
	trace *obs.Trace
	// done closes exactly once, on the terminal transition — the wakeup
	// for ?wait= long-polls and stream writers.
	done chan struct{}

	// mu guards everything below; rows arrive from runner workers while
	// GET handlers snapshot.
	mu     sync.Mutex
	status string // "running" | "done" | "cancelled" | "failed"
	points int
	rows   []sweep.Row // completed rows in completion order
	stats  sweep.RunStats
	result *sweep.Result
	errMsg string
	// subs are the live SSE subscribers. Registration shares mu with the
	// OnRow append+broadcast, so a subscriber sees each row exactly once:
	// either in its registration snapshot or as a live event, never both.
	subs map[*sweepSub]struct{}
	// finished is when the job reached a terminal state (zero while
	// running); comp is a ring of the last progressWindow point-completion
	// times and compN the total completions recorded into it.
	finished time.Time
	comp     [progressWindow]time.Time
	compN    int
}

// sweepSub is one SSE subscriber's bounded mailbox. The broadcaster never
// blocks on it: a full channel marks the subscriber lagged, removes it and
// closes the channel, so one stalled client can never slow the runner or
// its faster siblings. lagged is written under j.mu before the close and
// read by the writer only after the channel closes, which orders the two.
type sweepSub struct {
	ch     chan streamEvent
	lagged bool
}

// broadcastLocked fans one event out to every subscriber, dropping any
// whose buffer is full. Caller holds j.mu.
func (j *sweepJob) broadcastLocked(ev streamEvent) {
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.lagged = true
			delete(j.subs, sub)
			close(sub.ch)
		}
	}
}

// subscribe atomically snapshots the completed rows and registers a live
// subscriber. On a terminal job sub is nil: the caller replays the rows
// and emits the terminal status with nothing to subscribe to. Holding mu
// across both halves is what makes replay+live exactly-once.
func (j *sweepJob) subscribe(buf int) (sub *sweepSub, rows []sweep.Row, status string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil {
		rows = j.result.Rows
	} else {
		rows = append([]sweep.Row(nil), j.rows...)
	}
	status = j.status
	if j.status == "running" {
		sub = &sweepSub{ch: make(chan streamEvent, buf)}
		j.subs[sub] = struct{}{}
	}
	return sub, rows, status
}

// unsubscribe detaches a subscriber (client went away). Idempotent with
// the broadcast-side removal: whoever deletes the sub closes its channel.
func (j *sweepJob) unsubscribe(sub *sweepSub) {
	j.mu.Lock()
	if _, ok := j.subs[sub]; ok {
		delete(j.subs, sub)
		close(sub.ch)
	}
	j.mu.Unlock()
}

// finishLocked attempts the one-way transition to a terminal status and
// reports whether this caller won it. Terminal states are first-writer-
// wins: once a job is done/cancelled/failed, nothing rewrites it — the
// regression this kills was the job goroutine overwriting a DELETE's
// "cancelled" with "done" (or the DELETE answering "cancelled" for a job
// that had already finished). Caller holds j.mu.
func (j *sweepJob) finishLocked(status, errMsg string) bool {
	if j.status != "running" {
		return false
	}
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	// Wake the waiters: long-polls select on done; stream writers see
	// their channel close (without the lagged mark) and emit the terminal
	// status event. Both happen on cancellation too — a DELETE mid-run
	// releases every held connection immediately.
	close(j.done)
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
	return true
}

// SweepStatusDoc is the wire form of a sweep job's state.
type SweepStatusDoc struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Created string `json:"created"`
	// TraceID links to /v1/traces/{id}, where the job's stage spans
	// (store gets, builds, analyses) are; empty with observability off.
	TraceID string `json:"trace_id,omitempty"`
	// Points is the full grid size; Done counts points with a final row.
	Points int            `json:"points"`
	Done   int            `json:"done"`
	Stats  sweep.RunStats `json:"stats"`
	// ElapsedSeconds is run time so far (total on terminal jobs).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// PointsPerSecond and ETASeconds are the rolling completion rate over
	// the last few points and the remaining-work projection from it; both
	// only appear on a running job that has completed at least two points.
	// A job completing points faster than the clock ticks reports the
	// string "+Inf" (serialize.Float's non-finite form) rather than
	// silently omitting the field like a job with no data at all.
	PointsPerSecond serialize.Float `json:"points_per_second,omitempty"`
	ETASeconds      serialize.Float `json:"eta_seconds,omitempty"`
	// Rows are the completed rows so far (point order); on a finished job
	// this is the full deterministic aggregate table.
	Rows []sweep.Row `json:"rows,omitempty"`
}

// SweepCreatedDoc answers POST /v1/sweeps.
type SweepCreatedDoc struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Points int    `json:"points"`
}

// SweepGauges are the /metrics gauges for the job registry.
type SweepGauges struct {
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
}

func (s *Service) sweepGauges() SweepGauges {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	var g SweepGauges
	for _, j := range s.sweeps {
		j.mu.Lock()
		switch j.status {
		case "running":
			g.Running++
		case "done":
			g.Done++
		case "cancelled":
			g.Cancelled++
		case "failed":
			g.Failed++
		}
		j.mu.Unlock()
	}
	return g
}

// sweepEval routes one unique sweep job through the service's tiered
// serving path, so daemon sweeps and live /v1/analyze traffic share the
// cache, the store, the singleflight layer and the worker-token pool.
func (s *Service) sweepEval(g *sweep.Grid) sweep.Eval {
	return func(ctx context.Context, j *sweep.Job) (sweep.Outcome, error) {
		// The job's game is shared by every point of its spec: the first
		// point to get here builds the table, the rest read it and the
		// facts the first analysis computed. Like /v1/analyze, the table is
		// in hand before the cache lookup.
		endBuild := obs.StartSpan(ctx, obs.StageBuild)
		prep, err := j.Prepared()
		endBuild()
		if err != nil {
			return sweep.Outcome{}, err
		}
		// Options come from the job, not the grid: an eps axis resolves
		// per point, and j.Opts carries the normalized result the key was
		// derived from.
		resp, src, err := s.analyzeBuiltTier(
			ctx, prep, j.Digest, j.Spec.Game, j.Beta, j.Opts.Eps, j.Opts.MaxT, g.Backend)
		if err != nil {
			return sweep.Outcome{}, err
		}
		if resp.Key != j.Key {
			// The sweep runner and the serving path derive keys from the
			// same digest and normalized options; a mismatch means the
			// derivations drifted and dedup/resume guarantees are void.
			return sweep.Outcome{}, fmt.Errorf("internal error: sweep key %s != serving key %s", j.Key, resp.Key)
		}
		out := sweep.Outcome{Doc: resp.Report}
		switch src {
		case sourceMemory:
			out.Source = sweep.SourceCache
		case sourceStore:
			out.Source = sweep.SourceStore
		default:
			out.Source = sweep.SourceAnalyzed
		}
		return out, nil
	}
}

// sweepSeqOf parses the numeric suffix of a job id ("swp-1000042" →
// 1000042); non-conforming ids yield 0. Retention and listing order on
// (created, this) because lexicographic id order stops being
// chronological the moment the sequence outgrows its zero padding.
func sweepSeqOf(id string) uint64 {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// sweepWorkers is the per-job point fan-out cap: the pool budget, further
// bounded by Config.MaxSweepWorkers so one big job cannot monopolize the
// runner even before token priorities kick in.
func (s *Service) sweepWorkers() int {
	w := s.pool.Workers()
	if s.cfg.MaxSweepWorkers > 0 && s.cfg.MaxSweepWorkers < w {
		w = s.cfg.MaxSweepWorkers
	}
	return w
}

func (s *Service) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	s.reqSweeps.Add(1)
	if !s.admit(w, r) {
		return
	}
	var grid sweep.Grid
	if err := decodeBody(w, r, &grid); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Validate and size the grid synchronously so a malformed or oversized
	// sweep is a 400, not a background job that dies instantly.
	points, err := grid.Points(s.cfg.MaxSweepPoints)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	id := fmt.Sprintf("swp-%06d", s.sweepSeq.Add(1))
	created := time.Now()
	// Journal BEFORE the job starts: a daemon killed between here and the
	// first completed point still resumes the whole grid. A journal write
	// failure costs restart durability only, never the job.
	if err := s.cfg.Journal.Record(id, created, &grid); err != nil {
		s.cfg.Logger.Warn("sweep journal record failed", "sweep_id", id, "err", err.Error())
	}
	job := s.startSweep(&grid, id, created, points)
	writeJSON(w, http.StatusAccepted, SweepCreatedDoc{ID: job.id, Status: "running", Points: points})
}

// startSweep registers and launches one sweep job — the shared tail of
// POST /v1/sweeps and journal replay. The grid must already be validated
// to points grid points.
func (s *Service) startSweep(grid *sweep.Grid, id string, created time.Time, points int) *sweepJob {
	ctx, cancel := context.WithCancel(context.Background())
	job := &sweepJob{
		id:      id,
		created: created,
		cancel:  cancel,
		status:  "running",
		points:  points,
		done:    make(chan struct{}),
		subs:    make(map[*sweepSub]struct{}),
	}
	// The job gets its own trace (kind "sweep"), detached from the HTTP
	// request that created it: the POST returns immediately, the job's
	// store gets, builds and analyses span its whole background life.
	job.trace = s.cfg.Obs.StartTrace("sweep")
	job.trace.SetAttr("sweep_id", job.id)
	job.trace.SetAttr("points", strconv.Itoa(points))
	ctx = obs.With(ctx, s.cfg.Obs, job.trace)
	// Every token this job's points acquire — and every extra they borrow
	// — is requested at sweep priority, behind waiting interactive work.
	ctx = withClass(ctx, ClassSweep)
	s.sweepMu.Lock()
	s.sweeps[job.id] = job
	s.pruneSweepsLocked()
	s.sweepMu.Unlock()
	s.cfg.Logger.Info("sweep started",
		"sweep_id", job.id, "trace_id", job.trace.ID(), "points", points)

	runner := &sweep.Runner{
		Eval:      s.sweepEval(grid),
		Limits:    s.cfg.Limits,
		Workers:   s.sweepWorkers(),
		MaxPoints: s.cfg.MaxSweepPoints,
		OnRow: func(row sweep.Row) {
			// Marshal outside the lock; broadcast inside the same critical
			// section as the append, so a subscriber registering between the
			// two can't see the row twice (snapshot + live event).
			data := marshalEvent(row)
			job.mu.Lock()
			job.rows = append(job.rows, row)
			job.comp[job.compN%progressWindow] = time.Now()
			job.compN++
			job.broadcastLocked(streamEvent{name: "row", data: data})
			job.mu.Unlock()
		},
		// Live stats for GET while the run is in flight; the final
		// assignment below overwrites with the authoritative totals.
		OnProgress: func(st sweep.RunStats) {
			job.mu.Lock()
			job.stats = st
			// Marshaling under the lock keeps Done consistent with the
			// broadcast position; progress payloads are a few dozen bytes.
			data := marshalEvent(SweepProgressDoc{
				ID: job.id, Done: len(job.rows), Points: job.points, Stats: st,
			})
			job.broadcastLocked(streamEvent{name: "progress", data: data})
			job.mu.Unlock()
		},
	}
	go func() {
		// The job goroutine has no recoverJSON above it: a panic here would
		// kill the daemon and every live request with it. The runner
		// already contains per-point panics; this contains its own.
		defer func() {
			if rec := recover(); rec != nil {
				cancel()
				job.mu.Lock()
				job.finishLocked("failed", fmt.Sprintf("sweep panicked: %v", rec))
				job.mu.Unlock()
			}
			job.mu.Lock()
			status, errMsg, st := job.status, job.errMsg, job.stats
			elapsed := job.finished.Sub(job.created)
			job.mu.Unlock()
			// Terminal: the journal entry has served its purpose. Remove is
			// idempotent, so racing a DELETE's removal is harmless.
			if err := s.cfg.Journal.Remove(job.id); err != nil {
				s.cfg.Logger.Warn("sweep journal remove failed", "sweep_id", job.id, "err", err.Error())
			}
			job.trace.Finish(status)
			s.cfg.Logger.Info("sweep finished",
				"sweep_id", job.id, "trace_id", job.trace.ID(), "status", status,
				"error", errMsg, "points", st.Points, "analyzed", st.Analyzed,
				"store_hits", st.StoreHits, "cache_hits", st.CacheHits,
				"failed", st.Failed, "duration_ms", float64(elapsed.Nanoseconds())/1e6)
		}()
		res, stats, runErr := runner.Run(ctx, grid)
		cancel()
		job.mu.Lock()
		defer job.mu.Unlock()
		job.stats = stats
		job.result = res
		// result.Rows is the table from here on; the completion-order
		// copy would double every finished job's footprint.
		job.rows = nil
		// First-writer-wins: if a DELETE already marked the job cancelled,
		// these transitions lose and the status stands (the partial result
		// above is still recorded for GET).
		switch {
		case errors.Is(runErr, context.Canceled):
			job.finishLocked("cancelled", "")
		case runErr != nil:
			job.finishLocked("failed", runErr.Error())
		default:
			job.finishLocked("done", "")
		}
	}()
	return job
}

// ReplayJournal resumes every journaled sweep job — the daemon calls it
// once at boot, after the store is attached. Each entry re-enters the
// serving path under its original id and creation time; completed points
// are store hits, so a job killed at 90% costs 10% of its analyses to
// finish. Entries whose grids no longer parse or validate are dropped
// (with a log line) rather than wedging every future boot. Returns how
// many jobs were resumed.
func (s *Service) ReplayJournal() int {
	entries, err := s.cfg.Journal.Pending()
	if err != nil {
		s.cfg.Logger.Warn("journal scan failed", "err", err.Error())
		return 0
	}
	replayed := 0
	for _, e := range entries {
		drop := func(why string, err error) {
			s.cfg.Logger.Warn("journal entry dropped",
				"sweep_id", e.ID, "reason", why, "err", err.Error())
			_ = s.cfg.Journal.Remove(e.ID)
		}
		grid, err := sweep.ParseGrid(bytes.NewReader(e.Grid))
		if err != nil {
			drop("grid parse", err)
			continue
		}
		points, err := grid.Points(s.cfg.MaxSweepPoints)
		if err != nil {
			drop("grid validate", err)
			continue
		}
		s.sweepMu.Lock()
		_, exists := s.sweeps[e.ID]
		s.sweepMu.Unlock()
		if exists {
			continue
		}
		// New ids must never collide with replayed ones: advance the
		// sequence past every recovered suffix.
		seq := sweepSeqOf(e.ID)
		for {
			cur := s.sweepSeq.Load()
			if cur >= seq || s.sweepSeq.CompareAndSwap(cur, seq) {
				break
			}
		}
		s.startSweep(grid, e.ID, e.Created, points)
		s.journalReplays.Add(1)
		replayed++
		s.cfg.Logger.Info("sweep replayed from journal", "sweep_id", e.ID, "points", points)
	}
	return replayed
}

// maxRetainedSweeps bounds the job registry: beyond it, the oldest
// finished jobs (their tables included) are dropped — the persistent
// store, not the registry, is the durable record.
const maxRetainedSweeps = 128

// pruneSweepsLocked evicts the oldest terminal jobs over the retention
// cap; running jobs are never touched. Age is (created, numeric id
// suffix), NOT lexicographic id order — "swp-1000000" sorts before
// "swp-999999" as a string, so a string sort would evict the newest jobs
// once the sequence passes 999999. Caller holds sweepMu.
func (s *Service) pruneSweepsLocked() {
	if len(s.sweeps) <= maxRetainedSweeps {
		return
	}
	jobs := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		jobs = append(jobs, j)
	}
	// created and id are immutable after registration, so no j.mu needed.
	sort.Slice(jobs, func(a, b int) bool {
		if !jobs[a].created.Equal(jobs[b].created) {
			return jobs[a].created.Before(jobs[b].created)
		}
		return sweepSeqOf(jobs[a].id) < sweepSeqOf(jobs[b].id)
	})
	for _, j := range jobs {
		if len(s.sweeps) <= maxRetainedSweeps {
			return
		}
		j.mu.Lock()
		terminal := j.status != "running"
		j.mu.Unlock()
		if terminal {
			delete(s.sweeps, j.id)
		}
	}
}

func (s *Service) lookupSweep(id string) *sweepJob {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.sweeps[id]
}

// statusDoc snapshots a job for the wire; withRows elides the row copy
// for list views, which would otherwise pay an O(rows log rows) copy+sort
// per job per poll under the same lock the runner's OnRow needs.
func (j *sweepJob) statusDoc(withRows bool) SweepStatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := SweepStatusDoc{
		ID:      j.id,
		Status:  j.status,
		Error:   j.errMsg,
		Created: j.created.UTC().Format(time.RFC3339),
		TraceID: j.trace.ID(),
		Points:  j.points,
		Done:    len(j.rows),
		Stats:   j.stats,
	}
	if j.finished.IsZero() {
		doc.ElapsedSeconds = time.Since(j.created).Seconds()
		// Rolling rate over the last ≤progressWindow completions, and the
		// projection for what's left. With two samples the rate always
		// appears: a window coarse clocks stamp identically (every sample
		// inside one tick) reports "+Inf" instead of vanishing — the old
		// omission made a sub-tick sweep indistinguishable from one that
		// hadn't completed a second point yet.
		if n := min(j.compN, progressWindow); n >= 2 {
			newest := j.comp[(j.compN-1)%progressWindow]
			oldest := j.comp[j.compN%progressWindow]
			if j.compN < progressWindow {
				oldest = j.comp[0]
			}
			if window := newest.Sub(oldest).Seconds(); window > 0 {
				doc.PointsPerSecond = serialize.Float(float64(n-1) / window)
				doc.ETASeconds = serialize.Float(float64(j.points-len(j.rows)) / float64(doc.PointsPerSecond))
			} else {
				doc.PointsPerSecond = serialize.Float(math.Inf(1))
				// Remaining work at infinite measured rate projects to zero
				// wait, which omitempty elides — ETA stays absent, the rate
				// explains why.
			}
		}
	} else {
		doc.ElapsedSeconds = j.finished.Sub(j.created).Seconds()
	}
	if j.result != nil {
		// Finished: the runner's result is the deterministic table.
		doc.Done = len(j.result.Rows)
		if withRows {
			doc.Rows = j.result.Rows
		}
		return doc
	}
	if withRows {
		// In flight: completed rows so far, re-sorted into point order.
		doc.Rows = append([]sweep.Row(nil), j.rows...)
		sort.Slice(doc.Rows, func(a, b int) bool { return doc.Rows[a].Point < doc.Rows[b].Point })
	}
	return doc
}

// maxLongPoll caps ?wait=: a held GET is cheap (one parked goroutine, no
// worker token) but not free, and load balancers time idle connections out
// anyway.
const maxLongPoll = 5 * time.Minute

func (s *Service) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	s.reqSweeps.Add(1)
	job := s.lookupSweep(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", r.PathValue("id")))
		return
	}
	// ?wait=30s long-polls: hold the request until the job reaches a
	// terminal state (done closes — including on DELETE-cancel), the wait
	// elapses, or the client goes away, then answer with the status either
	// way. No worker token is held while parked.
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: want a duration like 30s", waitStr))
			return
		}
		if d > maxLongPoll {
			d = maxLongPoll
		}
		s.sweepLongPolls.Add(1)
		endWait := obs.StartSpan(r.Context(), "sweep_wait")
		timer := time.NewTimer(d)
		select {
		case <-job.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
		endWait()
	}
	writeJSON(w, http.StatusOK, job.statusDoc(true))
}

func (s *Service) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	s.reqSweeps.Add(1)
	job := s.lookupSweep(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", r.PathValue("id")))
		return
	}
	job.cancel()
	// First-writer-wins: DELETE claims the terminal transition only if the
	// job is still running; a job that already finished keeps — and this
	// response reports — its actual terminal state, instead of answering
	// "cancelled" for a sweep that ended "done".
	job.mu.Lock()
	cancelled := job.finishLocked("cancelled", "")
	status := job.status
	job.mu.Unlock()
	if cancelled {
		if err := s.cfg.Journal.Remove(job.id); err != nil {
			s.cfg.Logger.Warn("sweep journal remove failed", "sweep_id", job.id, "err", err.Error())
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": job.id, "status": status})
}

// SweepListDoc answers GET /v1/sweeps: every job, newest first, without
// rows.
type SweepListDoc struct {
	Sweeps []SweepStatusDoc `json:"sweeps"`
}

func (s *Service) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.reqSweeps.Add(1)
	s.sweepMu.Lock()
	jobs := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		jobs = append(jobs, j)
	}
	s.sweepMu.Unlock()
	// Newest first, by the same (created, numeric suffix) age that
	// retention uses — not string order, which misorders across the
	// 999999→1000000 boundary.
	sort.Slice(jobs, func(a, b int) bool {
		if !jobs[a].created.Equal(jobs[b].created) {
			return jobs[a].created.After(jobs[b].created)
		}
		return sweepSeqOf(jobs[a].id) > sweepSeqOf(jobs[b].id)
	})
	doc := SweepListDoc{Sweeps: make([]SweepStatusDoc, 0, len(jobs))}
	for _, j := range jobs {
		doc.Sweeps = append(doc.Sweeps, j.statusDoc(false))
	}
	writeJSON(w, http.StatusOK, doc)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/mixing"
	"logitdyn/internal/scratch"
	"logitdyn/internal/serialize"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

const sweepPoints = 16

// sweepSameShape is the sweep_sameshape8k workload: each op is one cold
// logitsweep run, sweep.Runner{Workers: 2} over 16 β drawn from the seed
// on the 8,192-profile double well (n=13, c=4, δ1=1), evaluated through
// sweep.DirectEvalScratch with a fresh store.Store per op, a sweep-class
// view of service.NewPool(2), and one scratch.Pool that lives across ops
// as in a long-running process. It is the workload where the arena's
// same-shape reuse and the store writes do real work.
func sweepSameShape(r *run) error {
	base := spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1}
	var pool *service.Pool
	var arenas *scratch.Pool
	stores := 0
	nextBeta := betaDeck(r.rng, 0.5, 1.5, sweepPoints)
	newGrid := func() *sweep.Grid {
		betas := make([]float64, sweepPoints)
		for i := range betas {
			betas[i] = nextBeta()
		}
		return &sweep.Grid{Axes: sweep.Axes{Beta: &sweep.Schedule{Values: betas}}, Base: base}
	}
	// once is one logitsweep invocation: open the store, run the grid.
	once := func(g *sweep.Grid, dir string, onRow func(sweep.Row)) (*sweep.Result, sweep.RunStats, *store.Store, error) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, sweep.RunStats{}, nil, err
		}
		runner := &sweep.Runner{
			Eval:    sweep.DirectEvalScratch(st, pool.ForClass(service.ClassSweep), arenas),
			Workers: workers,
			OnRow:   onRow,
		}
		res, stats, err := runner.Run(context.Background(), g)
		return res, stats, st, err
	}
	newDir := func() string {
		stores++
		return filepath.Join(r.tmp, fmt.Sprintf("store-%d", stores))
	}
	if err := r.setups(func() error {
		pool = service.NewPool(workers)
		arenas = scratch.NewPool()
		dir := newDir()
		res, stats, _, err := once(newGrid(), dir, nil)
		r.check("warm-up sweep", checkSweep(res, stats, err, sweepPoints, 0))
		return os.RemoveAll(dir)
	}); err != nil {
		return err
	}

	var tracedOps []int
	var pointMs []float64
	var analyzed, storeHits []float64
	var nnz, iters int
	replay, err := store.Open(filepath.Join(r.tmp, "replay-store"), store.Options{})
	if err != nil {
		return err
	}
	err = r.loop(func(i int, traced bool) (time.Duration, error) {
		g := newGrid()
		dir := newDir()
		var mu sync.Mutex
		var done []time.Time
		var onRow func(sweep.Row)
		if traced {
			onRow = func(sweep.Row) {
				mu.Lock()
				done = append(done, time.Now())
				mu.Unlock()
			}
		}
		var res *sweep.Result
		var stats sweep.RunStats
		var st *store.Store
		var err error
		t0 := time.Now()
		d := r.timeOp(i, traced, func() { res, stats, st, err = once(g, dir, onRow) })
		what := fmt.Sprintf("op %d", i)
		r.check(what, checkSweep(res, stats, err, sweepPoints, 0))
		// The resume contract: the same grid against the now-warm store
		// analyzes nothing and reproduces the table byte for byte.
		warm, warmStats, _, werr := once(g, dir, nil)
		r.check(what+" resumed", checkResume(res, warm, warmStats, werr))
		analyzed = append(analyzed, float64(stats.Analyzed))
		storeHits = append(storeHits, float64(warmStats.StoreHits))
		if traced && err == nil {
			sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
			prev := t0
			for _, t := range done {
				pointMs = append(pointMs, ms(t.Sub(prev)))
				prev = t
			}
			r.tr.do("replay", -1, i, func(root int) {
				for _, row := range res.Rows {
					var n, it int
					if n, it, err = replayPoint(r.tr, root, i, base, float64(row.Beta), row.Key, st, replay); err != nil {
						return
					}
					nnz, iters = n, iters+it
				}
			})
			if err != nil {
				return 0, fmt.Errorf("layer replay: %w", err)
			}
			tracedOps = append(tracedOps, i)
		}
		return d, os.RemoveAll(dir)
	})
	if err != nil || !r.cfg.trace {
		return err
	}

	self := r.tr.selfTimes()
	plainP50 := median(r.plainLat)
	r.layers["spectral.lanczos_iters"] = float64(iters) / float64(len(tracedOps))
	analysis := r.sparseLedger(self, tracedOps, sweepPoints, 1<<13, nnz)
	prep := 0.0
	for _, name := range []string{"game.materialize", "store.digest"} {
		prep += median(perOp(self, name, tracedOps))
	}
	put := median(perOp(self, "store.put", tracedOps))
	r.layers["game.materialize_ms"] = median(perOp(self, "game.materialize", tracedOps))
	r.layers["store.digest_ms"] = median(perOp(self, "store.digest", tracedOps))
	r.layers["store.put_ms"] = put
	r.layers["store.get_ms"] = median(perOp(self, "store.get", tracedOps))
	r.layers["sweep.point_ms"] = median(pointMs)
	r.layers["sweep.analyzed"] = median(analyzed)
	r.layers["sweep.store_hits"] = median(storeHits)
	m := arenas.Metrics()
	if m.Hits+m.Misses > 0 {
		r.layers["scratch.reuse_ratio"] = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
	r.layers["scratch.retained_bytes"] = float64(m.RetainedBytes)
	sum := prep + (analysis+put)/workers
	r.layers["ledger.residual_share"] = 1 - sum/plainP50
	r.layers["ledger.trace_overhead"] = median(r.tracedLat) / plainP50
	r.note("ledger: op_p50 %.3f ms untraced; serial prep (materialize + digest, %.3f ms) plus analysis and store writes (%.3f ms) over %d workers = %.3f ms; every layer is a per-op total over the %d points, replayed at worker budget 1 with no arena", plainP50, prep, analysis+put, workers, sum, sweepPoints)
	r.note("the residual is the runner's fan-out, the store's read-miss and index work, the arena (absent from the replay) and time the two workers are not both busy")
	return nil
}

// replayPoint re-runs one sweep point's work one exported call at a time:
// the runner's prep (spec build, materialize, digest), the sparse analysis
// at worker budget 1, and the store write and read of its report, which it
// takes from st and writes to a separate replay store.
func replayPoint(tr *tracer, parent, op int, base spec.Spec, beta float64, key string, st, replay *store.Store) (nnz, iters int, err error) {
	var tg *game.TableGame
	tr.leaf("game.materialize", parent, op, func() {
		var g game.Game
		if g, err = base.Build(); err == nil {
			tg = game.Materialize(g)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	tr.leaf("store.digest", parent, op, func() { store.GameDigest(tg) })
	trace, err := sparseLayers(tr, parent, op, tg, beta, mixing.DefaultEps, linalg.ParallelConfig{Workers: 1})
	if err != nil {
		return 0, 0, err
	}
	doc, ok := st.Get(key)
	if !ok {
		return 0, 0, fmt.Errorf("point %s missing from the store", key)
	}
	tr.leaf("store.put", parent, op, func() { err = replay.Put(key, doc) })
	if err != nil {
		return 0, 0, err
	}
	var got serialize.ReportDoc
	tr.leaf("store.get", parent, op, func() { got, ok = replay.Get(key) })
	if !ok || got.NumProfiles != doc.NumProfiles {
		return 0, 0, fmt.Errorf("replay store lost %s", key)
	}
	return trace.nnz, trace.iters, nil
}

// checkSweep holds a sweep to its contract: every point unique and
// analyzed (or served from the store) without error, on the sparse route,
// with a converged, ordered Theorem 2.3 sandwich.
func checkSweep(res *sweep.Result, stats sweep.RunStats, err error, analyzed, storeHits int) error {
	switch {
	case err != nil:
		return err
	case stats.Failed != 0:
		return fmt.Errorf("%d points failed", stats.Failed)
	case stats.Unique != sweepPoints || stats.Analyzed != analyzed || stats.StoreHits != storeHits:
		return fmt.Errorf("%d unique, %d analyzed, %d store hits; want %d, %d, %d",
			stats.Unique, stats.Analyzed, stats.StoreHits, sweepPoints, analyzed, storeHits)
	}
	for _, row := range res.Rows {
		switch {
		case row.Error != "":
			return fmt.Errorf("point %d: %s", row.Point, row.Error)
		case row.Backend != "sparse" || !row.SpectralConverged:
			return fmt.Errorf("point %d: backend %q, converged %v", row.Point, row.Backend, row.SpectralConverged)
		case !(row.SpectralLower <= row.SpectralUpper):
			return fmt.Errorf("point %d: sandwich [%v, %v] out of order", row.Point, row.SpectralLower, row.SpectralUpper)
		}
	}
	return nil
}

// checkResume holds a rerun against the warm store to the resume
// contract: all store hits, no analyses, identical table bytes.
func checkResume(cold, warm *sweep.Result, stats sweep.RunStats, err error) error {
	if err := checkSweep(warm, stats, err, 0, sweepPoints); err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := sweep.EncodeJSON(&a, cold); err != nil {
		return err
	}
	if err := sweep.EncodeJSON(&b, warm); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("resumed table differs from the cold one")
	}
	return nil
}

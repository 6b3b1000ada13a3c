package main

import (
	"fmt"
	"time"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
	"logitdyn/internal/spectral"
)

// The Lanczos settings the sparse route of core.AnalyzeGame uses (see
// internal/mixing); the layer replay must run the same iteration.
const (
	lanczosMaxIter = 256
	lanczosTol     = 1e-12
	lanczosSeed    = 0x1a9c205
)

// matvecReps is how many single mat-vecs a traced op times.
const matvecReps = 5

// sparseLayerNames are the layers of the sparse Lanczos route, in call
// order; their self times sum to the replayed analysis.
var sparseLayerNames = []string{
	"logit.new", "logit.gibbs", "logit.csr_build", "spectral.sym_operator",
	"spectral.lanczos", "mixing.potential_stats", "mixing.bounds",
	"game.nash", "game.dominant", "mixing.welfare",
}

// analyzeSparse is the analyze_sparse65k workload: one caller runs
// core.AnalyzeGame on the 65,536-profile double well (n=16, c=5, δ1=1)
// through the sparse backend at worker budget 2 and no scratch arena. β is
// drawn per op, so every op is cache-cold. It exercises logit, linalg,
// spectral, mixing and game, and nothing of scratch, sweep, store,
// serialize, service, sim or the dense eigen-solver.
func analyzeSparse(r *run) error {
	const profiles = 1 << 16
	par := linalg.ParallelConfig{Workers: workers}
	opts := core.Options{Backend: "sparse", Parallel: par}
	nextBeta := betaDeck(r.rng, 0.8, 1.2, 8)
	var tg *game.TableGame
	if err := r.setups(func() error {
		g, err := spec.Spec{Game: "doublewell", N: 16, C: 5, Delta1: 1}.Build()
		if err != nil {
			return err
		}
		tg = game.MaterializePar(g, par)
		beta := nextBeta()
		rep, err := core.AnalyzeGame(tg, beta, opts)
		r.check(fmt.Sprintf("warm-up (beta %v)", beta), checkSparse(rep, err, profiles))
		return nil
	}); err != nil {
		return err
	}

	var tracedOps []int
	var nnz int
	var iters []float64
	err := r.loop(func(i int, traced bool) (time.Duration, error) {
		beta := nextBeta()
		var rep *core.Report
		var err error
		d := r.timeOp(i, traced, func() { rep, err = core.AnalyzeGame(tg, beta, opts) })
		r.check(fmt.Sprintf("op %d (beta %v)", i, beta), checkSparse(rep, err, profiles))
		if traced && err == nil {
			var st sparseTrace
			r.tr.do("replay", -1, i, func(root int) {
				st, err = sparseLayers(r.tr, root, i, tg, beta, mixing.DefaultEps, par)
			})
			if err != nil {
				return 0, fmt.Errorf("layer replay: %w", err)
			}
			if st.iters != rep.LanczosIterations || st.lambdaStar != rep.LambdaStar {
				r.note("op %d: replayed Lanczos (%d iterations, λ*=%v) differs from the op's (%d, %v)",
					i, st.iters, st.lambdaStar, rep.LanczosIterations, rep.LambdaStar)
			}
			iters = append(iters, float64(st.iters))
			nnz = st.nnz
			tracedOps = append(tracedOps, i)
		}
		return d, nil
	})
	if err != nil || !r.cfg.trace {
		return err
	}

	self := r.tr.selfTimes()
	plainP50 := median(r.plainLat)
	r.layers["spectral.lanczos_iters"] = median(iters)
	sum := r.sparseLedger(self, tracedOps, 1, profiles, nnz)
	r.layers["linalg.par_ratio"] = parRatio(func(w int) time.Duration {
		o := opts
		o.Parallel = linalg.ParallelConfig{Workers: w}
		beta := nextBeta()
		t0 := time.Now()
		rep, err := core.AnalyzeGame(tg, beta, o)
		d := time.Since(t0)
		r.check(fmt.Sprintf("par-ratio op at %d workers (beta %v)", w, beta), checkSparse(rep, err, profiles))
		return d
	})
	r.layers["linalg.memcpy_gbps"] = memcpyGBps()
	r.layers["ledger.residual_share"] = 1 - sum/plainP50
	r.layers["ledger.trace_overhead"] = median(r.tracedLat) / plainP50
	r.note("ledger: op_p50 %.3f ms untraced; layers sum to %.3f ms (medians of per-op self times); the residual is core.AnalyzeGame's own glue and run-to-run variation, which no layer owns", plainP50, sum)
	return nil
}

// sparseTrace is what a replay of the sparse route reports besides spans.
type sparseTrace struct {
	iters, nnz int
	lambdaStar float64
}

// sparseLayers replays the sparse Lanczos route of core.AnalyzeGame one
// exported call at a time, each in a span under parent, then times
// matvecReps single applications of the symmetrized operator as spans of
// their own.
func sparseLayers(tr *tracer, parent, op int, tg *game.TableGame, beta, eps float64, par linalg.ParallelConfig) (sparseTrace, error) {
	var out sparseTrace
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			tr.leaf(name, parent, op, func() { err = fn() })
		}
	}
	p, ok := game.AsPotential(tg)
	if !ok {
		return out, fmt.Errorf("game has no potential")
	}
	var d *logit.Dynamics
	var pi []float64
	var csr *linalg.CSR
	var sym *spectral.SymOperator
	var res *spectral.LanczosResult
	var st *mixing.PotentialStats
	step("logit.new", func() (e error) { d, e = logit.New(tg, beta); return })
	step("logit.gibbs", func() (e error) { pi, e = d.GibbsPar(par); return })
	step("logit.csr_build", func() error { csr = d.TransitionCSRPar(par); return nil })
	step("spectral.sym_operator", func() (e error) {
		sym, e = spectral.NewSymOperator(csr, pi)
		if e == nil {
			sym.WithParallel(par)
		}
		return
	})
	step("spectral.lanczos", func() (e error) {
		res, e = spectral.Lanczos(sym, lanczosMaxIter, lanczosTol, rng.New(lanczosSeed))
		return
	})
	step("mixing.potential_stats", func() (e error) { st, e = mixing.AnalyzePotentialPar(p, par); return })
	step("mixing.bounds", func() (e error) { _, e = mixing.ReportFromStats(p, beta, eps, st); return })
	step("game.nash", func() error { game.PureNashEquilibriaPar(tg, 1e-12, par); return nil })
	step("game.dominant", func() error { game.DominantProfilePar(tg, 1e-12, par); return nil })
	step("mixing.welfare", func() (e error) { _, e = mixing.StationaryWelfarePar(d, pi, par); return })
	if err != nil {
		return out, err
	}
	v := sym.TopVector()
	dst := make([]float64, len(v))
	for k := 0; k < matvecReps; k++ {
		tr.leaf("spectral.matvec", -1, op, func() { sym.Apply(dst, v) })
	}
	return sparseTrace{iters: res.Iterations, nnz: csr.NNZ(), lambdaStar: res.LambdaStar()}, nil
}

// sparseLedger fills the sparse-route layer metrics from the traced ops,
// each of which replayed the route points times, and returns the sum of the
// layer medians in ms per op. spectral.lanczos_iters must already hold the
// iterations per op.
func (r *run) sparseLedger(self map[string]map[int]float64, ops []int, points, n, nnz int) float64 {
	sum := 0.0
	for _, name := range sparseLayerNames {
		sum += median(perOp(self, name, ops))
	}
	lanczos := median(perOp(self, "spectral.lanczos", ops))
	matvec := median(perOp(self, "spectral.matvec", ops)) / float64(matvecReps*points)
	bytes := matvecBytes(n, nnz)
	r.layers["logit.csr_build_ms"] = median(perOp(self, "logit.csr_build", ops))
	r.layers["logit.gibbs_ms"] = median(perOp(self, "logit.gibbs", ops))
	r.layers["logit.csr_nnz"] = float64(nnz)
	r.layers["spectral.lanczos_ms"] = lanczos
	r.layers["spectral.matvec_ms"] = matvec
	r.layers["spectral.reorth_ms"] = lanczos - r.layers["spectral.lanczos_iters"]*matvec
	r.layers["linalg.matvec_bytes"] = bytes
	r.layers["linalg.matvec_gbps"] = bytes / (matvec * 1e-3) / 1e9
	r.layers["mixing.potential_stats_ms"] = median(perOp(self, "mixing.potential_stats", ops))
	r.layers["mixing.welfare_ms"] = median(perOp(self, "mixing.welfare", ops))
	r.layers["game.nash_ms"] = median(perOp(self, "game.nash", ops))
	r.layers["game.dominant_ms"] = median(perOp(self, "game.dominant", ops))
	r.note("linalg.matvec_bytes is computed, not measured: CSR arrays once (16·nnz + 8·(n+1)), x and dst once (16·n), and the two π-scaling passes of SymOperator.Apply (48·n)")
	return sum
}

// matvecBytes is the compulsory memory traffic of one SymOperator.Apply on
// an n-row CSR operator with nnz entries (8-byte ints and floats).
func matvecBytes(n, nnz int) float64 {
	return float64(16*nnz + 8*(n+1) + 16*n + 48*n)
}

// parRatio times op at worker budget 1 and at 2, twice each and
// alternating, and returns the ratio of the medians (budget 1 over 2).
func parRatio(op func(workers int) time.Duration) float64 {
	var one, two []float64
	for k := 0; k < 2; k++ {
		one = append(one, ms(op(1)))
		two = append(two, ms(op(workers)))
	}
	return median(one) / median(two)
}

// memcpyGBps is the copy bandwidth of this host: bytes read plus written
// per second by copy on 32 MiB buffers, the median of seven copies.
func memcpyGBps() float64 {
	const n = 4 << 20
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src)
	var xs []float64
	for k := 0; k < 7; k++ {
		t0 := time.Now()
		copy(dst, src)
		xs = append(xs, float64(2*8*n)/time.Since(t0).Seconds()/1e9)
	}
	return median(xs)
}

// checkSparse holds a sparse-route report to the paper: a converged λ* in
// [0, 1) and a Theorem 2.3 sandwich whose lower end is ordered below its
// upper end and below the Theorem 3.4 bound.
func checkSparse(rep *core.Report, err error, profiles int) error {
	switch {
	case err != nil:
		return err
	case rep.NumProfiles != profiles:
		return fmt.Errorf("%d profiles, want %d", rep.NumProfiles, profiles)
	case rep.Backend != "sparse":
		return fmt.Errorf("backend %q, want sparse", rep.Backend)
	case !rep.SpectralConverged:
		return fmt.Errorf("Lanczos did not converge in %d iterations", rep.LanczosIterations)
	case !(rep.LambdaStar >= 0 && rep.LambdaStar < 1):
		return fmt.Errorf("λ* = %v outside [0, 1)", rep.LambdaStar)
	case !(rep.SpectralLower <= rep.SpectralUpper):
		return fmt.Errorf("sandwich [%v, %v] out of order", rep.SpectralLower, rep.SpectralUpper)
	case rep.Bounds == nil:
		return fmt.Errorf("no paper bounds in the report")
	case !(rep.SpectralLower <= rep.Bounds.Thm34Upper):
		return fmt.Errorf("spectral lower bound %v exceeds the Thm 3.4 bound %v", rep.SpectralLower, rep.Bounds.Thm34Upper)
	}
	return nil
}

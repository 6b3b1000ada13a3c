package main

import (
	"fmt"
	"math"
	"time"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
)

const (
	simReplicas = 10_000
	simSteps    = 1_000
	simBeta     = 0.5
	// stepSample is the length of the single-replica trajectory a traced
	// op times per step.
	stepSample = 200_000
	drawSample = 1_000_000
)

// simulateReplicas is the simulate_10k workload: core.Analyzer.
// SimulateReplicas with 10,000 replicas × 1,000 steps at worker budget 2 on
// the Ising ring of 10 players at β=0.5 (1,024 profiles), a fresh seed per
// op. All of its work is logit stepping, rng and sim.SumCounts; no linear
// algebra runs.
func simulateReplicas(r *run) error {
	var a *core.Analyzer
	var pi []float64
	var tol, worstTV float64
	start := make([]int, 10)
	if err := r.setups(func() error {
		g, err := spec.Spec{Game: "ising", Graph: "ring", N: 10, Delta1: 1}.Build()
		if err != nil {
			return err
		}
		tg := game.MaterializePar(g, linalg.ParallelConfig{Workers: workers})
		if a, err = core.NewAnalyzer(tg, simBeta); err != nil {
			return err
		}
		if pi, err = a.Gibbs(); err != nil {
			return err
		}
		// The check's tolerance, derived from the sample size: pooled
		// occupancy of R i.i.d. replicas lies within 0.5·sqrt(|S|/R) of its
		// mean in expected TV, and that mean, started from one profile,
		// lies within 2·t_upper/(T+1) of π, t_upper being the Theorem 2.3
		// upper end for ε=1/4 (the sparse route measures it cheaply).
		rep, err := a.Analyze(core.Options{Backend: "sparse", Parallel: linalg.ParallelConfig{Workers: workers}})
		if err != nil {
			return err
		}
		tol = 0.5*math.Sqrt(float64(len(pi))/simReplicas) + 2*rep.SpectralUpper/(simSteps+1)
		seed := r.rng.Uint64()
		out, err := a.SimulateReplicas(start, simSteps, simReplicas, seed, workers)
		r.check(fmt.Sprintf("warm-up (seed %d)", seed), checkOccupancy(out, err, pi, tol, &worstTV))
		return nil
	}); err != nil {
		return err
	}

	// Worker budget must only change wall time: budget 2 and budget 1 give
	// the same bits for one seed.
	seed := r.rng.Uint64()
	t0 := time.Now()
	one, err := a.SimulateReplicas(start, simSteps, simReplicas, seed, 1)
	tookOne := time.Since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	two, err := a.SimulateReplicas(start, simSteps, simReplicas, seed, workers)
	tookTwo := time.Since(t0)
	if err != nil {
		return err
	}
	r.check("budget 1 and 2 agree bit for bit", sameBits(one, two))

	var tracedOps []int
	err = r.loop(func(i int, traced bool) (time.Duration, error) {
		seed := r.rng.Uint64()
		var out []float64
		var err error
		d := r.timeOp(i, traced, func() { out, err = a.SimulateReplicas(start, simSteps, simReplicas, seed, workers) })
		r.check(fmt.Sprintf("op %d (seed %d)", i, seed), checkOccupancy(out, err, pi, tol, &worstTV))
		if traced {
			dyn := a.Dynamics()
			r.tr.leaf("logit.step", -1, i, func() { dyn.Trajectory(start, stepSample, rng.New(seed)) })
			g := rng.New(seed)
			r.tr.leaf("rng.draw", -1, i, func() {
				s := 0.0
				for k := 0; k < drawSample; k++ {
					s += g.Float64()
				}
				sink = s
			})
			tracedOps = append(tracedOps, i)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	r.note("worst TV distance of an op's occupancy to Gibbs π: %.4g, tolerance %.4g", worstTV, tol)
	if !r.cfg.trace {
		return nil
	}

	self := r.tr.selfTimes()
	plainP50 := median(r.plainLat)
	stepNs := median(perOp(self, "logit.step", tracedOps)) * 1e6 / stepSample
	steps := float64(simReplicas) * simSteps
	r.layers["logit.step_ns"] = stepNs
	r.layers["rng.draw_ns"] = median(perOp(self, "rng.draw", tracedOps)) * 1e6 / drawSample
	r.layers["sim.replica_steps"] = steps
	r.layers["sim.par_ratio"] = float64(tookOne) / float64(tookTwo)
	sum := steps * stepNs / workers / 1e6
	r.layers["ledger.residual_share"] = 1 - sum/plainP50
	r.layers["ledger.trace_overhead"] = median(r.tracedLat) / plainP50
	r.note("ledger: op_p50 %.3f ms untraced; replica steps × single-replica step cost / %d workers = %.3f ms; the residual is the pooled merge in sim.SumCounts and parallel inefficiency, which the single-replica timing cannot see; rng.draw_ns is part of logit.step_ns, not added to it", plainP50, workers, sum)
	r.note("sim.par_ratio is one budget-1 op over one budget-2 op on the same seed, from the bit-identity check")
	return nil
}

// sink keeps timed loops from being optimized away.
var sink float64

// checkOccupancy holds a pooled occupancy to a probability vector within
// tol of π in total variation, and raises *worst to its distance.
func checkOccupancy(out []float64, err error, pi []float64, tol float64, worst *float64) error {
	if err != nil {
		return err
	}
	if len(out) != len(pi) {
		return fmt.Errorf("%d states, want %d", len(out), len(pi))
	}
	sum, tv := 0.0, 0.0
	for i, v := range out {
		sum += v
		tv += math.Abs(v - pi[i])
	}
	tv /= 2
	*worst = max(*worst, tv)
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("occupancy sums to %v", sum)
	}
	if !(tv <= tol) {
		return fmt.Errorf("TV to Gibbs π is %v, over the tolerance %v", tv, tol)
	}
	return nil
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("state %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

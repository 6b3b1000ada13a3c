package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/mixing"
	"logitdyn/internal/obs"
)

func coordGame(t *testing.T) game.Coordination2x2 {
	t.Helper()
	g, err := game.NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnalyzeCoordination(t *testing.T) {
	a, err := NewAnalyzer(coordGame(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumProfiles != 4 {
		t.Errorf("NumProfiles = %d", rep.NumProfiles)
	}
	if !rep.IsPotentialGame {
		t.Error("coordination game must report as potential game")
	}
	if rep.Stats == nil || rep.Stats.DeltaPhi != 3 {
		t.Errorf("Stats = %+v", rep.Stats)
	}
	if rep.Bounds == nil || rep.Bounds.Thm34Upper <= float64(rep.MixingTime) {
		t.Error("Thm 3.4 bound must dominate the measured mixing time")
	}
	if len(rep.PureNash) != 2 {
		t.Errorf("PureNash = %v", rep.PureNash)
	}
	if rep.DominantProfile != nil {
		t.Error("coordination game has no dominant profile")
	}
	if rep.MinEigenvalue < -1e-9 {
		t.Errorf("Theorem 3.1 violated: λ_min = %g", rep.MinEigenvalue)
	}
	if rep.MixingTime <= 0 {
		t.Errorf("MixingTime = %d", rep.MixingTime)
	}
	if s := sum(rep.Stationary); math.Abs(s-1) > 1e-12 {
		t.Errorf("stationary sums to %g", s)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestAnalyzeDominantGame(t *testing.T) {
	g, err := game.NewDominantDiagonal(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DominantProfile == nil {
		t.Fatal("dominant profile must be detected")
	}
	for _, v := range rep.DominantProfile {
		if v != 0 {
			t.Fatalf("DominantProfile = %v", rep.DominantProfile)
		}
	}
	if !rep.Bounds.HasDominantProfile {
		t.Error("bounds report must flag the dominant profile")
	}
}

func TestAnalyzeNonPotentialGame(t *testing.T) {
	// Matching pennies: no potential, no pure Nash; stationary still exists.
	g := game.NewTableGame([]int{2, 2})
	sp := g.Space()
	for idx := 0; idx < sp.Size(); idx++ {
		x := sp.Decode(idx, nil)
		v := 1.0
		if x[0] != x[1] {
			v = -1
		}
		g.SetUtilityIndexed(0, idx, v)
		g.SetUtilityIndexed(1, idx, -v)
	}
	a, err := NewAnalyzer(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IsPotentialGame {
		t.Error("matching pennies must not report a potential")
	}
	if rep.Stats != nil || rep.Bounds != nil {
		t.Error("non-potential game must not carry potential stats")
	}
	if len(rep.PureNash) != 0 {
		t.Errorf("PureNash = %v", rep.PureNash)
	}
	if rep.MixingTime <= 0 {
		t.Errorf("evolution fallback t_mix = %d", rep.MixingTime)
	}
	if !math.IsNaN(rep.LambdaStar) {
		t.Error("spectral fields must be NaN for non-reversible chains")
	}
}

// An ε outside (0, 1) or a negative MaxT is an input error on every route.
// Before the check, the dense route treated spectral's ε error as a
// non-reversible chain and fell back to brute-force evolution: ε ≥ 1
// reported NaN spectra with t_mix 0, and ε < 0 evolved until the cap. The
// deadline turns that hang into a failure.
func TestAnalyzeRejectsOutOfRangeOptions(t *testing.T) {
	dw, err := game.NewDoubleWell(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(dw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{{Eps: -0.5}, {Eps: 1}, {Eps: 1.5}, {Eps: math.NaN()}, {MaxT: -1}}
	for _, backend := range []string{"dense", "sparse"} {
		for _, o := range bad {
			o.Backend = backend
			done := make(chan error, 1)
			go func() {
				_, err := a.Analyze(o)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s eps=%v max_t=%d: analysis ran, want an input error", backend, o.Eps, o.MaxT)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s eps=%v max_t=%d: still running after 10s", backend, o.Eps, o.MaxT)
			}
		}
	}

	// A chain with a spectral decomposition whose t_mix exceeds MaxT has
	// its answer from the d(t) search: d(t) is non-increasing, so evolving
	// up to MaxT steps cannot mix sooner and must not run. This double
	// well has t_mix 13,317.
	well, err := game.NewDoubleWell(6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err = NewAnalyzer(well, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Analyze(Options{Backend: "dense", MaxT: 2000})
	if err == nil || !strings.Contains(err.Error(), "exceeds 2000") || strings.Contains(err.Error(), "evolution") {
		t.Fatalf("t_mix above MaxT on a decomposed chain: got %v, want the spectral search's error alone", err)
	}
}

// bareDoubleWell is the 4-player double well materialized WITHOUT its
// potential table.
func bareDoubleWell(t *testing.T) *game.TableGame {
	t.Helper()
	dw, err := game.NewDoubleWell(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := game.NewTableGame([]int{2, 2, 2, 2})
	sp := bare.Space()
	x := make([]int, 4)
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		for i := 0; i < 4; i++ {
			bare.SetUtilityIndexed(i, idx, dw.Utility(i, x))
		}
	}
	return bare
}

func TestAnalyzeReconstructsUndeclaredPotential(t *testing.T) {
	// A common-interest game materialized WITHOUT its potential table:
	// Analyze must reconstruct it.
	a, err := NewAnalyzer(bareDoubleWell(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsPotentialGame {
		t.Fatal("potential must be reconstructed from utilities")
	}
	if math.Abs(rep.Stats.DeltaPhi-2) > 1e-9 {
		t.Errorf("reconstructed ΔΦ = %g, want 2", rep.Stats.DeltaPhi)
	}
}

// matchingPennies is the two-player zero-sum game with no pure Nash
// equilibrium and no potential: its logit chain is not reversible, so the
// dense route measures t_mix by the evolution fallback.
func matchingPennies() *game.TableGame {
	g := game.NewTableGame([]int{2, 2})
	for idx, u := range []float64{1, -1, -1, 1} {
		g.SetUtilityIndexed(0, idx, u)
		g.SetUtilityIndexed(1, idx, -u)
	}
	return g
}

func TestDenseRouteComputesStationaryOnce(t *testing.T) {
	// Without a closed-form Gibbs measure π comes from a dense solve: a
	// potential game stripped of its Φ table, and matching pennies, which
	// has no potential at all. The dense route solves once, inside
	// mixing.ExactMixingTimePar, and the report reuses that π: the trace
	// has no stationary stage, and the report carries the same π and t_mix
	// as the standalone route.
	for name, g := range map[string]*game.TableGame{
		"bare-doublewell":  bareDoubleWell(t),
		"matching-pennies": matchingPennies(),
	} {
		t.Run(name, func(t *testing.T) {
			a, err := NewAnalyzer(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(4)
			tr := o.StartTrace("analyze")
			rep, err := a.AnalyzeCtx(obs.With(context.Background(), o, tr), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tr.Doc(true).Spans {
				if s.Stage == obs.StageStationary {
					t.Fatalf("dense route recomputed π: spans %+v", tr.Doc(true).Spans)
				}
			}
			res, err := mixing.ExactMixingTimePar(a.dyn, mixing.DefaultEps, 1<<62, linalg.ParallelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.Stationary, res.Stationary) {
				t.Fatalf("report π %v differs from the route's %v", rep.Stationary, res.Stationary)
			}
			if rep.MixingTime != res.MixingTime {
				t.Fatalf("report t_mix %d, standalone route %d", rep.MixingTime, res.MixingTime)
			}
		})
	}
}

func TestAnalyzeDenseBackendRefusesHugeSpaces(t *testing.T) {
	g, err := game.NewDoubleWell(20, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Analyze(Options{Backend: "dense"})
	if err == nil || !strings.Contains(err.Error(), "exceed") || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("expected dense cap error, got %v", err)
	}
}

func TestAnalyzeAutoRoutesLargeSpacesToSparse(t *testing.T) {
	// 2^13 = 8192 profiles: over the dense cap, so auto must take the
	// sparse Lanczos route and report the Theorem 2.3 sandwich instead of
	// an exact mixing time.
	g, err := game.NewDoubleWell(13, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "sparse" {
		t.Fatalf("backend = %q, want sparse", rep.Backend)
	}
	if rep.MixingTimeExact {
		t.Fatal("Lanczos route must not claim an exact mixing time")
	}
	if !(rep.RelaxationTime > 1) || math.IsInf(rep.RelaxationTime, 0) {
		t.Fatalf("relaxation time = %g", rep.RelaxationTime)
	}
	if !(rep.SpectralLower >= 0) || !(rep.SpectralUpper > rep.SpectralLower) {
		t.Fatalf("sandwich [%g, %g] is not a valid envelope", rep.SpectralLower, rep.SpectralUpper)
	}
	if rep.LanczosIterations <= 0 {
		t.Fatalf("LanczosIterations = %d", rep.LanczosIterations)
	}
	if rep.Stationary != nil {
		t.Fatal("large reports must elide the stationary vector")
	}
	if rep.Stats == nil || rep.Stats.Phi != nil {
		t.Fatal("large reports must keep scalar potential stats but elide the Φ table")
	}
	if rep.Welfare == nil || len(rep.PureNash) == 0 {
		t.Fatal("welfare and equilibrium structure must survive the sparse route")
	}
}

func TestAnalyzeSparseRouteReconstructsUndeclaredPotential(t *testing.T) {
	// A utility-table copy of a potential game above the dense cap: no Φ
	// is declared, so the sparse route must reconstruct it to get a Gibbs
	// measure instead of rejecting the game.
	dw, err := game.NewDoubleWell(13, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := game.SpaceOf(dw)
	sizes := make([]int, sp.Players())
	for i := range sizes {
		sizes[i] = sp.Strategies(i)
	}
	bare := game.NewTableGame(sizes)
	x := make([]int, sp.Players())
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		for i := 0; i < sp.Players(); i++ {
			bare.SetUtilityIndexed(i, idx, dw.Utility(i, x))
		}
	}
	if _, ok := game.AsPotential(bare); ok {
		t.Fatal("test setup: the bare table must not declare a potential")
	}

	rep, err := AnalyzeGame(bare, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "sparse" || !rep.IsPotentialGame {
		t.Fatalf("backend %q, potential %v; want sparse route with reconstructed potential",
			rep.Backend, rep.IsPotentialGame)
	}

	// The reconstructed-π analysis must match the declared-Φ one.
	declared, err := AnalyzeGame(dw, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rep.LambdaStar - declared.LambdaStar); diff > 1e-9 {
		t.Fatalf("λ* via reconstructed potential differs by %g", diff)
	}
	if diff := math.Abs(rep.Stats.DeltaPhi - declared.Stats.DeltaPhi); diff > 1e-9 {
		t.Fatalf("ΔΦ via reconstructed potential differs by %g", diff)
	}
}

func TestSimulateMatchesGibbs(t *testing.T) {
	a, err := NewAnalyzer(coordGame(t), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := a.Simulate([]int{0, 0}, 300000, 12)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := a.Gibbs()
	if err != nil {
		t.Fatal(err)
	}
	if tv := markov.TVDistance(emp, pi); tv > 0.01 {
		t.Fatalf("simulated occupancy vs Gibbs TV = %g", tv)
	}
}

func TestSimulateValidation(t *testing.T) {
	a, _ := NewAnalyzer(coordGame(t), 1)
	if _, err := a.Simulate([]int{0, 0}, 0, 1); err == nil {
		t.Fatal("t=0 must error")
	}
}

func TestSimulateRejectsBadStart(t *testing.T) {
	g, err := game.NewIsing(graph.Ring(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range [][]int{{0, 0, 0}, {0, 0, 5, 0}, {0, -1, 0, 0}} {
		if _, err := a.Simulate(start, 10, 1); err == nil {
			t.Errorf("Simulate(%v) accepted a malformed start", start)
		}
		// replicas > 1 walk on worker goroutines, where a panic would be
		// unrecoverable: the check must come first.
		for _, replicas := range []int{1, 4} {
			if _, err := a.SimulateReplicas(start, 10, replicas, 1, 2); err == nil {
				t.Errorf("SimulateReplicas(%v, replicas %d) accepted a malformed start", start, replicas)
			}
		}
	}
}

func TestSimulateReplicasWorkerInvariant(t *testing.T) {
	g, err := game.NewIsing(graph.Ring(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]int, 6)
	// 64 profiles × 6 players: 400 steps × 8 replicas is past the σ-table
	// threshold, 40 × 8 below it; budgets never change the bits either way.
	for _, steps := range []int{40, 400} {
		want, err := a.SimulateReplicas(start, steps, 8, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := a.SimulateReplicas(start, steps, 8, 3, w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d steps: workers %d changed the occupancy", steps, w)
			}
		}
	}
}

// BenchmarkSimulateReplicas is the replica simulation layer alone: 1,000
// replicas × 1,000 steps on the materialized Ising ring of 10 players at
// β = 0.5, one σ table per op.
func BenchmarkSimulateReplicas(b *testing.B) {
	g, err := game.NewIsing(graph.Ring(10), 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAnalyzer(game.Materialize(g), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	start := make([]int, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.SimulateReplicas(start, 1_000, 1_000, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGrowthExponentRingTracksTwoDelta(t *testing.T) {
	// Theorem 5.6/5.7: ring with δ0=δ1=δ has exponent ≈ 2δ.
	delta := 1.0
	g, err := game.NewIsing(graph.Ring(4), delta)
	if err != nil {
		t.Fatal(err)
	}
	betas := []float64{1.5, 2, 2.5, 3}
	times := make([]float64, len(betas))
	for i, beta := range betas {
		a, err := NewAnalyzer(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := a.MixingTime(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = float64(tm)
	}
	slope, err := mixing.GrowthExponent(betas, times)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2*delta) > 0.5 {
		t.Errorf("ring slope = %g, want ≈ %g", slope, 2*delta)
	}
}

func TestMixingTimeDefaultArgs(t *testing.T) {
	a, _ := NewAnalyzer(coordGame(t), 0.5)
	tm, err := a.MixingTime(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Fatalf("t_mix = %d", tm)
	}
}

func TestAnalyzeIncludesWelfare(t *testing.T) {
	a, err := NewAnalyzer(coordGame(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Welfare == nil {
		t.Fatal("report must include a welfare summary")
	}
	if rep.Welfare.Optimum != 6 {
		t.Errorf("welfare optimum %g, want 6", rep.Welfare.Optimum)
	}
	if rep.Welfare.Expected <= 0 || rep.Welfare.Expected > rep.Welfare.Optimum {
		t.Errorf("expected welfare %g out of range", rep.Welfare.Expected)
	}
}

// callLog is a potential game that records each Utility call as one
// number, player·|S| + profile index, so a test can find one scan's exact
// call sequence inside a whole analysis.
type callLog struct {
	game.Potential
	sp    *game.Space
	mu    sync.Mutex
	calls []int
}

func (c *callLog) Utility(i int, x []int) float64 {
	c.mu.Lock()
	c.calls = append(c.calls, i*c.sp.Size()+c.sp.Encode(x))
	c.mu.Unlock()
	return c.Potential.Utility(i, x)
}

// occurrences counts the non-overlapping runs of pass inside calls.
func occurrences(calls, pass []int) int {
	n := 0
	for i := 0; i+len(pass) <= len(calls); {
		if slices.Equal(calls[i:i+len(pass)], pass) {
			n++
			i += len(pass)
		} else {
			i++
		}
	}
	return n
}

func TestAnalyzeScansNashOnce(t *testing.T) {
	// The report's equilibrium list and its welfare both need the pure
	// Nash equilibria; one analysis must scan for them once. On one worker
	// a scan is one fixed call sequence, so count its runs in the
	// analysis' calls.
	g, err := game.NewDoubleWell(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	scan := &callLog{Potential: g, sp: game.SpaceOf(g)}
	game.PureNashEquilibriaPar(scan, 1e-12, linalg.Serial)
	for _, backend := range []string{"dense", "sparse"} {
		an := &callLog{Potential: g, sp: game.SpaceOf(g)}
		rep, err := AnalyzeGame(an, 1, Options{Backend: backend, Parallel: linalg.Serial})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.PureNash) == 0 || rep.Welfare == nil || math.IsNaN(rep.Welfare.WorstNash) {
			t.Fatalf("%s: the analysis found no equilibria to scan for", backend)
		}
		if n := occurrences(an.calls, scan.calls); n != 1 {
			t.Errorf("%s: the analysis scanned for pure Nash equilibria %d times, want once", backend, n)
		}
	}
}

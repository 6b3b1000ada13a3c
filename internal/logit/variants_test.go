package logit

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

func TestBestResponseStepPicksBestResponse(t *testing.T) {
	d := mustDyn(t, coordination(t), 5)
	r := rng.New(1)
	// Against opponent playing 0, best response is 0.
	for k := 0; k < 50; k++ {
		x := []int{1, 0}
		for { // force selection of player 0
			y := append([]int(nil), x...)
			if i, _ := d.BestResponseStep(y, r); i == 0 {
				if y[0] != 0 {
					t.Fatalf("best response chose %d, want 0", y[0])
				}
				break
			}
		}
	}
}

func TestBestResponseConvergeReachesNash(t *testing.T) {
	// Potential games: best response converges to a pure Nash equilibrium.
	games := map[string]game.Game{
		"coordination": coordination(t),
		"congestion":   mustCongestion(t),
		"dominant":     mustDominant(t, 3, 3),
	}
	for name, g := range games {
		d := mustDyn(t, g, 1)
		r := rng.New(7)
		x := make([]int, d.Space().Players())
		for i := range x {
			x[i] = d.Space().Strategies(i) - 1
		}
		steps, err := d.BestResponseConverge(x, r, 100000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !game.IsPureNash(d.Game(), x, 1e-12) {
			t.Fatalf("%s: converged profile %v is not Nash", name, x)
		}
		if steps < 0 {
			t.Fatalf("%s: negative steps", name)
		}
	}
}

func TestBestResponseConvergeTimeout(t *testing.T) {
	// Matching pennies has no pure Nash equilibrium: must time out.
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
	d := mustDyn(t, g, 1)
	x := []int{0, 1}
	if _, err := d.BestResponseConverge(x, rng.New(3), 1000); err == nil {
		t.Fatal("matching pennies must not converge")
	}
}

func TestParallelStepMarginals(t *testing.T) {
	// One parallel step from a fixed profile: each player's marginal must
	// equal her σ_i(· | x), and players must be independent.
	d := mustDyn(t, coordination(t), 0.8)
	x := []int{0, 1}
	want0 := d.UpdateProbs(0, x, nil)
	want1 := d.UpdateProbs(1, x, nil)
	const trials = 200000
	r := rng.New(9)
	var c0, c1, c00 float64
	for k := 0; k < trials; k++ {
		y := append([]int(nil), x...)
		d.ParallelStep(y, r)
		if y[0] == 0 {
			c0++
		}
		if y[1] == 0 {
			c1++
		}
		if y[0] == 0 && y[1] == 0 {
			c00++
		}
	}
	if math.Abs(c0/trials-want0[0]) > 0.005 {
		t.Errorf("player 0 marginal %g, want %g", c0/trials, want0[0])
	}
	if math.Abs(c1/trials-want1[0]) > 0.005 {
		t.Errorf("player 1 marginal %g, want %g", c1/trials, want1[0])
	}
	// Independence: joint = product of marginals.
	if math.Abs(c00/trials-want0[0]*want1[0]) > 0.005 {
		t.Errorf("joint %g, want %g", c00/trials, want0[0]*want1[0])
	}
}

func TestParallelTrajectoryErgodicOnIsing(t *testing.T) {
	// The parallel dynamics is still an ergodic chain (β < ∞); its
	// occupancy converges to *its own* stationary distribution, which for
	// β > 0 differs from the asynchronous Gibbs measure in general. Just
	// check the trajectory visits both wells on a small ring.
	g, err := game.NewIsing(graph.Ring(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDyn(t, g, 0.5)
	counts := d.ParallelTrajectory(make([]int, 4), 100000, rng.New(5))
	sp := d.Space()
	ones := sp.Encode([]int{1, 1, 1, 1})
	zeros := sp.Encode([]int{0, 0, 0, 0})
	if counts[ones] == 0 || counts[zeros] == 0 {
		t.Fatalf("parallel trajectory failed to visit both wells: %d / %d",
			counts[zeros], counts[ones])
	}
}

func TestSchedules(t *testing.T) {
	lin := LinearSchedule(0, 10, 100)
	if lin(0) != 0 || lin(100) != 10 || lin(1000) != 10 {
		t.Error("linear schedule endpoints")
	}
	if v := lin(50); math.Abs(v-5) > 1e-12 {
		t.Errorf("lin(50) = %g", v)
	}
	logS := LogSchedule(2)
	if logS(0) != 0 {
		t.Error("log schedule at 0")
	}
	if v := logS(99); math.Abs(v-2*math.Log(100)) > 1e-9 {
		t.Errorf("log schedule value %g, want %g", v, 2*math.Log(100))
	}
}

func TestAnnealedTrajectoryConcentrates(t *testing.T) {
	// Annealing β upward on the coordination game should land the chain in
	// the risk-dominant equilibrium with high empirical mass late in the
	// run.
	d := mustDyn(t, coordination(t), 1) // base β unused by the schedule
	sched := LinearSchedule(0, 6, 20000)
	counts, err := d.AnnealedTrajectory([]int{1, 1}, 60000, sched, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Space()
	frac := float64(counts[sp.Encode([]int{0, 0})]) / 60001
	if frac < 0.5 {
		t.Fatalf("risk-dominant occupancy %g after annealing, want > 0.5", frac)
	}
}

func TestAnnealedStepRejectsBadSchedule(t *testing.T) {
	d := mustDyn(t, coordination(t), 1)
	bad := func(int) float64 { return math.NaN() }
	if err := d.AnnealedStep([]int{0, 0}, 0, bad, rng.New(1)); err == nil {
		t.Fatal("NaN schedule must error")
	}
}

func TestHittingTimeOfDominantProfile(t *testing.T) {
	// Integration with markov.HittingTimes: the expected hitting time of
	// the dominant profile is finite and grows modestly with β (the
	// Section 4 phenomenon: dominant games stay tractable at any β).
	g := mustDominant(t, 3, 2)
	prev := 0.0
	for _, beta := range []float64{0, 2, 8} {
		d := mustDyn(t, g, beta)
		sp := d.Space()
		target := make([]bool, sp.Size())
		target[sp.Encode([]int{0, 0, 0})] = true
		worst, err := markov.WorstHittingTime(d.TransitionDensePar(linalg.ParallelConfig{}), target)
		if err != nil {
			t.Fatal(err)
		}
		if worst <= 0 || math.IsInf(worst, 0) {
			t.Fatalf("β=%g: worst hitting time %g", beta, worst)
		}
		prev = worst
	}
	_ = prev
}

func TestParallelTransitionStochastic(t *testing.T) {
	for name, g := range map[string]game.Game{
		"coordination": coordination(t),
		"dominant":     mustDominant(t, 3, 2),
	} {
		for _, beta := range []float64{0, 1, 5} {
			d := mustDyn(t, g, beta)
			p := d.ParallelTransitionDense()
			if err := markov.CheckStochastic(p, 1e-12); err != nil {
				t.Errorf("%s β=%g: %v", name, beta, err)
			}
		}
	}
}

func TestParallelTransitionMatchesSimulation(t *testing.T) {
	d := mustDyn(t, coordination(t), 0.8)
	sp := d.Space()
	start := sp.Encode([]int{0, 1})
	p := d.ParallelTransitionDense()
	const trials = 200000
	r := rng.New(31)
	counts := make([]float64, sp.Size())
	for k := 0; k < trials; k++ {
		x := sp.Decode(start, nil)
		d.ParallelStep(x, r)
		counts[sp.Encode(x)]++
	}
	for to := range counts {
		if got, want := counts[to]/trials, p.At(start, to); math.Abs(got-want) > 0.005 {
			t.Fatalf("state %d: empirical %g vs exact %g", to, got, want)
		}
	}
}

func TestParallelStationaryDiffersFromGibbs(t *testing.T) {
	// The synchronous chain is a different Markov chain: at β > 0 its
	// stationary distribution deviates from the asynchronous Gibbs measure
	// (they coincide only at β = 0, where both are uniform).
	d := mustDyn(t, coordination(t), 1.5)
	p := d.ParallelTransitionDense()
	piPar, err := markov.StationaryDirect(p)
	if err != nil {
		t.Fatal(err)
	}
	gibbs, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if tv := markov.TVDistance(piPar, gibbs); tv < 1e-6 {
		t.Fatalf("parallel stationary unexpectedly equals Gibbs (TV=%g)", tv)
	}
	// And at β = 0 they must both be uniform.
	d0 := mustDyn(t, coordination(t), 0)
	pi0, err := markov.StationaryDirect(d0.ParallelTransitionDense())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pi0 {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("β=0 parallel stationary not uniform: %v", pi0)
		}
	}
}

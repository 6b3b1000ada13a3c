package mixing

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
	"logitdyn/internal/spectral"
)

func coordDyn(t *testing.T, beta float64) *logit.Dynamics {
	t.Helper()
	base, err := game.NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := logit.New(base, beta)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExactMixingTimeAgreesWithEvolution(t *testing.T) {
	// The two independent measurement routes must agree exactly.
	for _, beta := range []float64{0, 0.5, 1.2} {
		d := coordDyn(t, beta)
		spec, err := ExactMixingTimePar(d, DefaultEps, 1<<40, linalg.ParallelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		evo, err := EvolutionMixingTimePar(d, DefaultEps, 100000, nil, linalg.ParallelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if spec.MixingTime != evo {
			t.Errorf("β=%g: spectral t_mix=%d vs evolution t_mix=%d", beta, spec.MixingTime, evo)
		}
	}
}

func TestExactMixingTimeRingGame(t *testing.T) {
	base, _ := game.NewCoordination2x2(2, 2, 0, 0)
	g, err := game.NewGraphical(graph.Ring(4), base)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := logit.New(g, 0.5)
	spec, err := ExactMixingTimePar(d, DefaultEps, 1<<40, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := EvolutionMixingTimePar(d, DefaultEps, 100000, nil, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.MixingTime != evo {
		t.Errorf("ring: spectral %d vs evolution %d", spec.MixingTime, evo)
	}
}

func TestMixingTimeIncreasesWithBeta(t *testing.T) {
	// For the coordination game (two wells), t_mix grows with β.
	prev := int64(0)
	for _, beta := range []float64{0, 1, 2, 3} {
		d := coordDyn(t, beta)
		res, err := ExactMixingTimePar(d, DefaultEps, 1<<50, linalg.ParallelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MixingTime < prev {
			t.Fatalf("t_mix decreased: %d after %d at β=%g", res.MixingTime, prev, beta)
		}
		prev = res.MixingTime
	}
}

func TestMeasuredMixingUnderTheorem34(t *testing.T) {
	// The measured t_mix must respect the all-β upper bound.
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	st, err := AnalyzePotentialPar(base, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0, 0.5, 1, 2} {
		d := coordDyn(t, beta)
		res, err := ExactMixingTimePar(d, DefaultEps, 1<<50, linalg.ParallelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bound := Theorem34Upper(2, 2, beta, st.DeltaPhi, DefaultEps)
		if float64(res.MixingTime) > bound {
			t.Errorf("β=%g: t_mix=%d exceeds Thm 3.4 bound %g", beta, res.MixingTime, bound)
		}
	}
}

func TestGrowthExponentRecoversSlope(t *testing.T) {
	// Synthetic data with known slope 2.5.
	betas := []float64{1, 2, 3, 4}
	times := make([]float64, len(betas))
	for i, b := range betas {
		times[i] = 3 * math.Exp(2.5*b)
	}
	slope, err := GrowthExponent(betas, times)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2.5) > 1e-9 {
		t.Fatalf("slope = %g, want 2.5", slope)
	}
}

func TestGrowthExponentErrors(t *testing.T) {
	if _, err := GrowthExponent([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample must error")
	}
	if _, err := GrowthExponent([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := GrowthExponent([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate grid must error")
	}
	if _, err := GrowthExponent([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("non-positive time must error")
	}
}

func TestReportCoordination(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	st, err := AnalyzePotentialPar(base, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReportFromStats(base, 1, DefaultEps, st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DeltaPhi != 3 {
		t.Errorf("ΔΦ = %g", r.Stats.DeltaPhi)
	}
	if r.HasDominantProfile {
		t.Error("coordination game has no dominant profile")
	}
	if r.Thm34Upper <= 0 || r.Thm38Upper <= 0 {
		t.Error("bounds must be positive")
	}
	// β=1 is not in the small-β regime for δΦ=3, n=2 (threshold 0.5/6).
	if r.Thm36Applies {
		t.Error("Thm 3.6 must not apply at β=1")
	}
	small, err := ReportFromStats(base, 0.05, DefaultEps, st)
	if err != nil {
		t.Fatal(err)
	}
	if !small.Thm36Applies {
		t.Error("Thm 3.6 must apply at β=0.05")
	}
}

func TestReportDominantGame(t *testing.T) {
	g, _ := game.NewDominantDiagonal(3, 2)
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReportFromStats(g, 5, DefaultEps, st)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasDominantProfile {
		t.Error("DominantDiagonal must report a dominant profile")
	}
	if r.Thm42Upper <= 0 {
		t.Error("Thm 4.2 bound must be positive")
	}
}

func TestBoundFunctionsSanity(t *testing.T) {
	// Monotonicity spot checks on the closed forms.
	if Theorem34Upper(4, 2, 2, 3, 0.25) <= Theorem34Upper(4, 2, 1, 3, 0.25) {
		t.Error("Thm 3.4 bound must grow with β")
	}
	if Theorem35Lower(8, 2, 10, 3, 1, 0.25) <= Theorem35Lower(8, 2, 5, 3, 1, 0.25) {
		t.Error("Thm 3.5 bound must grow with β")
	}
	if Theorem35Lower(8, 2, 10, 3, 0, 0.25) != 0 {
		t.Error("Thm 3.5 with δΦ=0 degenerates to 0")
	}
	if !Theorem36Condition(4, 0.01, 1, 0.5) || Theorem36Condition(4, 10, 1, 0.5) {
		t.Error("Thm 3.6 condition misclassifies")
	}
	if Theorem36Condition(4, 100, 0, 0.5) != true {
		t.Error("constant potential is always small-β")
	}
	if Theorem42Upper(3, 2) >= Theorem42Upper(4, 2) {
		t.Error("Thm 4.2 bound must grow with n")
	}
	if Theorem43Lower(3, 2) != (8.0-1)/4 {
		t.Errorf("Thm 4.3 lower = %g", Theorem43Lower(3, 2))
	}
	if Theorem43BetaThreshold(3, 2) != math.Log(7) {
		t.Error("Thm 4.3 β threshold")
	}
	if Theorem51Upper(5, 2, 1, 1, 1) <= Theorem51Upper(5, 1, 1, 1, 1) {
		t.Error("Thm 5.1 bound must grow with cutwidth")
	}
	if Theorem55Exponent(2, 0, -6) != 12 {
		t.Error("Thm 5.5 exponent")
	}
	if Theorem56Upper(8, 2, 1, 0.25) <= Theorem56Upper(8, 1, 1, 0.25) {
		t.Error("Thm 5.6 bound must grow with β")
	}
	if Theorem57Lower(2, 1, 0.25) != 0.25*(1+math.Exp(4)) {
		t.Error("Thm 5.7 lower bound")
	}
	if Theorem39Lower(2, 0, 1, 1, 0.25) != 0 {
		t.Error("Thm 3.9 with zero boundary degenerates to 0")
	}
}

func TestEvolutionMixingTimeTimeout(t *testing.T) {
	d := coordDyn(t, 3)
	if _, err := EvolutionMixingTimePar(d, DefaultEps, 2, nil, linalg.ParallelConfig{}); err == nil {
		t.Fatal("tiny maxT must error")
	}
}

func TestEvolutionMixingTimeZeroForTrivial(t *testing.T) {
	// β = 0 on a 1-player game mixes in ~1 step; ensure no underflow of the
	// t=0 short-circuit on an already-mixed chain.
	g, err := game.NewWeightPotential(1, func(int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	d, _ := logit.New(g, 0)
	tm, err := EvolutionMixingTimePar(d, DefaultEps, 10, nil, linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tm > 1 {
		t.Fatalf("trivial chain t_mix = %d", tm)
	}
}

// referenceEvolutionMixingTime measures t_mix by evolution on row lists:
// rows built entry by entry from UpdateProbs and Space.WithDigit, each
// start's distribution stepped by a serial scatter, the worst TV distance
// taken after every lockstep step.
func referenceEvolutionMixingTime(t *testing.T, d *logit.Dynamics, eps float64, maxT int) int64 {
	t.Helper()
	pi, err := d.StationaryPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		to int
		p  float64
	}
	sp := d.Space()
	n, size := sp.Players(), sp.Size()
	rows := make([][]entry, size)
	x := make([]int, n)
	for idx := range rows {
		sp.Decode(idx, x)
		self := 0.0
		for i := 0; i < n; i++ {
			for v, p := range d.UpdateProbs(i, x, nil) {
				if v == x[i] {
					self += p
				} else if p != 0 {
					rows[idx] = append(rows[idx], entry{sp.WithDigit(idx, i, v), p / float64(n)})
				}
			}
		}
		rows[idx] = append(rows[idx], entry{idx, self / float64(n)})
	}
	dists := make([][]float64, size)
	for s := range dists {
		dists[s] = make([]float64, size)
		dists[s][s] = 1
	}
	next := make([]float64, size)
	for step := 0; step <= maxT; step++ {
		worst := 0.0
		for _, mu := range dists {
			worst = max(worst, markov.TVDistance(mu, pi))
		}
		if worst <= eps+spectral.TVTol {
			return int64(step)
		}
		for s, mu := range dists {
			clear(next)
			for i, mass := range mu {
				if mass == 0 {
					continue
				}
				for _, e := range rows[i] {
					next[e.to] += mass * e.p
				}
			}
			dists[s], next = next, mu
		}
	}
	t.Fatalf("reference evolution did not mix within %d steps", maxT)
	return 0
}

// matchingPennies is the two-player zero-sum game with no potential.
func matchingPennies() *game.TableGame {
	g := game.NewTableGame([]int{2, 2})
	for idx, u := range []float64{1, -1, -1, 1} {
		g.SetUtilityIndexed(0, idx, u)
		g.SetUtilityIndexed(1, idx, -u)
	}
	return g
}

func TestEvolutionMatchesRowListReference(t *testing.T) {
	// Non-reversible chains are where the dense route falls back to
	// evolution. The CSR route must report the row-list reference's t_mix
	// at every budget, whether π is passed in or solved here.
	random := game.NewTableGame([]int{2, 3, 2, 2, 3, 2})
	r := rng.New(5)
	for i := 0; i < random.Players(); i++ {
		for idx := 0; idx < random.Space().Size(); idx++ {
			random.SetUtilityIndexed(i, idx, r.NormFloat64())
		}
	}
	for name, g := range map[string]*game.TableGame{"matching-pennies": matchingPennies(), "random-144": random} {
		for _, beta := range []float64{0, 1, 2.5} {
			d, err := logit.New(g, beta)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEvolutionMixingTime(t, d, DefaultEps, 1<<16)
			pi, err := d.StationaryPar(linalg.Serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				par := linalg.ParallelConfig{Workers: workers, MinRows: 1}
				for _, given := range [][]float64{nil, pi} {
					got, err := EvolutionMixingTimePar(d, DefaultEps, 1<<16, given, par)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s β=%g workers=%d: evolution t_mix %d, row-list reference %d", name, beta, workers, got, want)
					}
				}
			}
		}
	}
}

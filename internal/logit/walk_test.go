package logit

import (
	"errors"
	"math"
	"slices"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
)

// snapshot is one per-stride observation of a walk.
type snapshot struct {
	step, idx int
	x         []int
}

// referenceWalk is the chain as Step defines it: σ_i(·|x) evaluated afresh
// by UpdateProbs on every step and the index re-encoded from the profile.
// The Walker, tabulated or not, must reproduce it exactly.
func referenceWalk(d *Dynamics, start []int, t, every int, r *rng.RNG) ([]int64, []snapshot) {
	sp := d.Space()
	counts := make([]int64, sp.Size())
	x := append([]int(nil), start...)
	counts[sp.Encode(x)]++
	var snaps []snapshot
	for s := 1; s <= t; s++ {
		d.Step(x, r)
		idx := sp.Encode(x)
		counts[idx]++
		if s%every == 0 || s == t {
			snaps = append(snaps, snapshot{s, idx, append([]int(nil), x...)})
		}
	}
	return counts, snaps
}

// walk runs w.Walk collecting the same observations as referenceWalk.
func walk(t *testing.T, w *Walker, start []int, steps, every int, r *rng.RNG) ([]int64, []snapshot) {
	t.Helper()
	counts := make([]int64, w.d.Space().Size())
	var snaps []snapshot
	err := w.Walk(counts, start, steps, r, every, func(s int, x []int, idx int) error {
		snaps = append(snaps, snapshot{s, idx, append([]int(nil), x...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts, snaps
}

func sameSnapshots(a, b []snapshot) bool {
	return slices.EqualFunc(a, b, func(p, q snapshot) bool {
		return p.step == q.step && p.idx == q.idx && slices.Equal(p.x, q.x)
	})
}

// walkerGames are the parity cases: the Ising ring, mixed strategy counts,
// a game without a potential, β = 0, and a β at which some σ entries
// underflow to exactly zero.
func walkerGames(t *testing.T) map[string]*Dynamics {
	t.Helper()
	ising, err := game.NewIsing(graph.Ring(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed := game.NewRandomPotential([]int{2, 3, 4}, 1, rng.New(3))
	noPot := game.NewTableGame([]int{3, 2, 2})
	r := rng.New(11)
	for i := 0; i < noPot.Players(); i++ {
		for idx := 0; idx < noPot.Space().Size(); idx++ {
			noPot.SetUtilityIndexed(i, idx, r.NormFloat64())
		}
	}
	return map[string]*Dynamics{
		"ising ring":    mustDyn(t, ising, 0.7),
		"mixed 2/3/4":   mustDyn(t, mixed, 1.3),
		"no potential":  mustDyn(t, noPot, 0.9),
		"beta zero":     mustDyn(t, ising, 0),
		"underflow σ=0": mustDyn(t, ising, 800),
	}
}

func TestWalkerMatchesReference(t *testing.T) {
	for name, d := range walkerGames(t) {
		sp := d.Space()
		threshold := sp.Size() * sp.Players()
		start := make([]int, sp.Players())
		start[sp.Players()-1] = sp.Strategies(sp.Players()-1) - 1
		for _, budget := range []int{1, 2, 4} {
			par := linalg.ParallelConfig{Workers: budget, MinRows: 1}
			onTheFly := d.NewWalker(threshold-1, 1, par)
			tabled := d.NewWalker(threshold, 1, par)
			if onTheFly.rows != nil || tabled.rows == nil {
				t.Fatalf("%s: steps |S|·n−1 tabled=%v, |S|·n tabled=%v; want false, true",
					name, onTheFly.rows != nil, tabled.rows != nil)
			}
			if name == "underflow σ=0" && !slices.Contains(tabled.rows, 0) {
				t.Fatal("no σ entry underflowed to 0, so Categorical's zero weights go untested")
			}
			for seed := uint64(1); seed <= 3; seed++ {
				wantCounts, wantSnaps := referenceWalk(d, start, 3000, 37, rng.New(seed))
				for kind, w := range map[string]*Walker{"on the fly": onTheFly, "tabled": tabled} {
					counts, snaps := walk(t, w, start, 3000, 37, rng.New(seed))
					if !slices.Equal(counts, wantCounts) || !sameSnapshots(snaps, wantSnaps) {
						t.Fatalf("%s, %s walk, budget %d, seed %d: diverged from the reference", name, kind, budget, seed)
					}
				}
			}
		}
	}
}

func TestWalkerTableIndependentOfBudget(t *testing.T) {
	for name, d := range walkerGames(t) {
		sp := d.Space()
		ref := d.NewWalker(sp.Size()*sp.Players(), 1, linalg.Serial).rows
		for _, budget := range []int{2, 4} {
			rows := d.NewWalker(sp.Size(), sp.Players(), linalg.ParallelConfig{Workers: budget, MinRows: 1}).rows
			if !slices.EqualFunc(rows, ref, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s: budget %d changed the σ table", name, budget)
			}
		}
	}
}

func TestWalkerThresholdNeverOverflows(t *testing.T) {
	d := walkerGames(t)["ising ring"]
	for _, c := range []struct {
		steps, walks int
		tabled       bool
	}{
		{math.MaxInt, math.MaxInt, true},
		{math.MaxInt, 1, true},
		{-1, math.MaxInt, false},
		{math.MaxInt, 0, false},
		{0, 0, false},
	} {
		if got := d.NewWalker(c.steps, c.walks, linalg.Serial).rows != nil; got != c.tabled {
			t.Errorf("NewWalker(%d, %d) tabled = %v, want %v", c.steps, c.walks, got, c.tabled)
		}
	}
}

func TestWalkStopsOnVisitError(t *testing.T) {
	d := walkerGames(t)["ising ring"]
	w := d.NewWalker(1<<20, 1, linalg.Serial)
	stop := errors.New("stop")
	counts := make([]int64, d.Space().Size())
	last := 0
	err := w.Walk(counts, make([]int, 6), 1000, rng.New(1), 10, func(s int, _ []int, _ int) error {
		last = s
		if s == 30 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || last != 30 {
		t.Fatalf("Walk returned %v after step %d, want stop at 30", err, last)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 31 {
		t.Fatalf("%d visits counted, want 31 (start + 30 steps)", total)
	}
}

// FuzzWalker checks tabulated walks against the reference on small random
// table games (1–3 players, 1–4 strategies each) with β and the walk's
// seed taken from the fuzz input.
func FuzzWalker(f *testing.F) {
	f.Add(uint64(1), 1.0, uint64(7))
	f.Add(uint64(0x2f), 0.0, uint64(3))
	f.Add(uint64(0x3b5), 900.0, uint64(9))
	f.Fuzz(func(t *testing.T, shape uint64, beta float64, seed uint64) {
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			beta = 1
		}
		beta = math.Mod(math.Abs(beta), 2000)
		sizes := make([]int, 1+shape%3)
		for i := range sizes {
			sizes[i] = 1 + int(shape>>(2+2*i)%4)
		}
		g := game.NewTableGame(sizes)
		r := rng.New(shape)
		for i := range sizes {
			for idx := 0; idx < g.Space().Size(); idx++ {
				g.SetUtilityIndexed(i, idx, math.Round(4*r.NormFloat64()))
			}
		}
		d, err := New(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		start := make([]int, len(sizes))
		wantCounts, wantSnaps := referenceWalk(d, start, 500, 7, rng.New(seed))
		counts, snaps := walk(t, d.NewWalker(math.MaxInt, 1, linalg.Serial), start, 500, 7, rng.New(seed))
		if !slices.Equal(counts, wantCounts) || !sameSnapshots(snaps, wantSnaps) {
			t.Fatalf("sizes %v, β %g, seed %d: tabulated walk diverged from the reference", sizes, beta, seed)
		}
	})
}

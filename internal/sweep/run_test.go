package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"logitdyn/internal/cluster"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

// testGrid is a 3-axis acceptance-shaped grid: game × n × β = 2×2×4 = 16
// points over two weight-potential families, all small enough for the
// dense exact route.
func testGrid() *Grid {
	return &Grid{
		Name: "test",
		Axes: Axes{
			Game: []string{"doublewell", "asymwell"},
			N:    []int{6, 8},
			Beta: &Schedule{From: 0.5, To: 2, Steps: 4},
		},
		Base: spec.Spec{C: 2, Delta1: 1, Depth: 3, Shallow: 1},
	}
}

func runAll(t *testing.T, st cluster.ReportStore, g *Grid) (*Result, RunStats) {
	t.Helper()
	r := &Runner{Eval: DirectEvalScratch(st, nil, nil), Workers: 4}
	res, stats, err := r.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

func encodeBoth(t *testing.T, res *Result) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := EncodeJSON(&j, res); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&c, res); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// Cold run analyzes every unique point; a warm rerun against the same
// store performs ZERO re-analyses and reproduces the aggregate table byte
// for byte — the issue's acceptance criterion at package level.
func TestSweepWarmStoreZeroReanalysesByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("pure determinism check over 32 analyses; too slow under -race, no concurrency coverage lost")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, stats1 := runAll(t, st, testGrid())
	if stats1.Points != 16 || stats1.Unique != 16 || stats1.Analyzed != 16 || stats1.Failed != 0 {
		t.Fatalf("cold stats = %+v", stats1)
	}
	for _, row := range res1.Rows {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", row.Point, row.Error)
		}
		if row.Key == "" || row.Backend == "" {
			t.Fatalf("row %d incomplete: %+v", row.Point, row)
		}
	}

	res2, stats2 := runAll(t, st, testGrid())
	if stats2.Analyzed != 0 || stats2.StoreHits != 16 {
		t.Fatalf("warm stats = %+v, want 0 analyzed / 16 store hits", stats2)
	}
	j1, c1 := encodeBoth(t, res1)
	j2, c2 := encodeBoth(t, res2)
	if j1 != j2 {
		t.Fatalf("warm JSON differs from cold:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Fatalf("warm CSV differs from cold:\n%s\nvs\n%s", c1, c2)
	}
	if !strings.Contains(c1, "doublewell") || len(strings.Split(strings.TrimSpace(c1), "\n")) != 17 {
		t.Fatalf("CSV shape wrong:\n%s", c1)
	}
}

// Killing a sweep mid-run (context cancel after k completed points) and
// rerunning against the same store completes only the missing points and
// converges to the byte-identical table of an uninterrupted run.
func TestSweepResumeAfterKillIsDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("pure determinism check over 48 analyses; too slow under -race, no concurrency coverage lost")
	}
	// Reference: one uninterrupted run on its own store.
	refStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runAll(t, refStore, testGrid())
	refJSON, refCSV := encodeBoth(t, ref)

	// Interrupted run: cancel after 5 completed rows. Workers=1 makes the
	// count of completed-before-kill analyses deterministic.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	r := &Runner{
		Eval:    DirectEvalScratch(st, nil, nil),
		Workers: 1,
		OnRow: func(Row) {
			if done.Add(1) == 5 {
				cancel()
			}
		},
	}
	_, stats, runErr := r.Run(ctx, testGrid())
	if runErr == nil {
		t.Fatal("cancelled run reported no error")
	}
	if stats.Cancelled == 0 || stats.Analyzed >= 16 {
		t.Fatalf("kill stats = %+v: nothing was actually interrupted", stats)
	}
	analyzedBeforeKill := stats.Analyzed

	// Resume: same grid, same store.
	res, stats2 := runAll(t, st, testGrid())
	if stats2.Analyzed != 16-analyzedBeforeKill {
		t.Fatalf("resume analyzed %d, want exactly the %d missing points", stats2.Analyzed, 16-analyzedBeforeKill)
	}
	if stats2.StoreHits != analyzedBeforeKill {
		t.Fatalf("resume store hits %d, want %d", stats2.StoreHits, analyzedBeforeKill)
	}
	gotJSON, gotCSV := encodeBoth(t, res)
	if gotJSON != refJSON {
		t.Fatal("resumed table differs from uninterrupted run (JSON)")
	}
	if gotCSV != refCSV {
		t.Fatal("resumed table differs from uninterrupted run (CSV)")
	}
}

// Canonical-hash dedup: the coordination family ignores the n axis, so an
// n sweep over it collapses to one analysis shared by every point.
func TestSweepDedupByCanonicalHash(t *testing.T) {
	g := &Grid{
		Axes: Axes{N: []int{2, 3, 4}, Beta: &Schedule{Values: []float64{1}}},
	}
	g.Base.Game = "coordination"
	g.Base.Delta0 = 3
	g.Base.Delta1 = 2
	var evals atomic.Int64
	inner := DirectEvalScratch(nil, nil, nil)
	r := &Runner{
		Eval: func(ctx context.Context, j *Job) (Outcome, error) {
			evals.Add(1)
			return inner(ctx, j)
		},
		Workers: 2,
	}
	res, stats, err := r.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if evals.Load() != 1 {
		t.Fatalf("dedup ran %d evals, want 1", evals.Load())
	}
	if stats.Unique != 1 || stats.Duplicates != 2 || stats.Analyzed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (duplicates share the report)", len(res.Rows))
	}
	for _, row := range res.Rows[1:] {
		if row.Key != res.Rows[0].Key || row.MixingTime != res.Rows[0].MixingTime {
			t.Fatalf("duplicate rows diverge: %+v vs %+v", row, res.Rows[0])
		}
	}
}

// OnProgress streams stats snapshots while the run is in flight, ending
// on the authoritative totals — the serving layer's live GET view.
func TestSweepOnProgressStreamsStats(t *testing.T) {
	var snaps []RunStats
	r := &Runner{
		Eval:       DirectEvalScratch(nil, nil, nil),
		Workers:    1,
		OnProgress: func(st RunStats) { snaps = append(snaps, st) },
	}
	_, final, err := r.Run(context.Background(), testGrid())
	if err != nil {
		t.Fatal(err)
	}
	// One snapshot after prep plus one per completed unique point.
	if len(snaps) != 1+final.Unique {
		t.Fatalf("%d snapshots for %d unique points", len(snaps), final.Unique)
	}
	if snaps[0].Unique != final.Unique || snaps[0].Analyzed != 0 {
		t.Fatalf("prep snapshot = %+v", snaps[0])
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Analyzed < snaps[i-1].Analyzed {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	if snaps[len(snaps)-1] != final {
		t.Fatalf("last snapshot %+v != final stats %+v", snaps[len(snaps)-1], final)
	}
}

// Failed points get deterministic error rows and don't block the rest.
func TestSweepFailedPointsAreRecorded(t *testing.T) {
	g := &Grid{
		Axes: Axes{Game: []string{"doublewell", "no-such-family"}, Beta: &Schedule{Values: []float64{1}}},
	}
	g.Base.N = 6
	g.Base.C = 2
	g.Base.Delta1 = 1
	res, stats := runAll(t, nil, g)
	if stats.Failed != 1 || stats.Analyzed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if res.Rows[0].Error != "" || res.Rows[1].Error == "" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if !strings.Contains(res.Rows[1].Error, "unknown game") {
		t.Fatalf("error row says %q", res.Rows[1].Error)
	}
}

// The generalized axes keep the canonical-hash dedup guarantees: an axis
// the family ignores (seed on the deterministic double well) collapses to
// one analysis, while an eps axis splits keys — a different TV target is a
// different answer — and stamps each row with its resolved eps.
func TestGeneralizedAxesDedupAndEpsKeys(t *testing.T) {
	g := &Grid{
		Axes: Axes{
			Seed: []uint64{1, 2, 3},
			Eps:  []float64{0.125, 0.25},
			Beta: &Schedule{Values: []float64{1}},
		},
		Base: spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1},
	}
	var evals atomic.Int64
	inner := DirectEvalScratch(nil, nil, nil)
	r := &Runner{
		Eval: func(ctx context.Context, j *Job) (Outcome, error) {
			evals.Add(1)
			return inner(ctx, j)
		},
		Workers: 2,
	}
	res, stats, err := r.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// 3 seeds × 2 eps = 6 points; the seed axis dedups away, eps does not.
	if stats.Points != 6 || stats.Unique != 2 || stats.Duplicates != 4 {
		t.Fatalf("stats = %+v, want 6 points / 2 unique", stats)
	}
	if evals.Load() != 2 {
		t.Fatalf("ran %d evals, want 2", evals.Load())
	}
	byEps := map[float64]string{}
	for _, row := range res.Rows {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", row.Point, row.Error)
		}
		eps := float64(row.Eps)
		if eps != 0.125 && eps != 0.25 {
			t.Fatalf("row %d carries eps %v", row.Point, eps)
		}
		if key, ok := byEps[eps]; ok && key != row.Key {
			t.Fatalf("same eps, different keys: %s vs %s", key, row.Key)
		}
		byEps[eps] = row.Key
	}
	if byEps[0.125] == byEps[0.25] {
		t.Fatal("different eps targets share a cache key")
	}
}

// A δ-parameter axis produces genuinely different games (distinct keys,
// distinct measurements) — the ROADMAP "richer grid axes" coverage of the
// paper's coupling-constant sweeps without per-point code.
func TestDeltaAxisSweepsCoupling(t *testing.T) {
	g := &Grid{
		Axes: Axes{
			Delta1: []float64{0.5, 1, 2},
			Beta:   &Schedule{Values: []float64{0.5}},
		},
		Base: spec.Spec{Game: "ising", Graph: "ring", N: 4},
	}
	res, stats := runAll(t, nil, g)
	if stats.Unique != 3 || stats.Analyzed != 3 {
		t.Fatalf("stats = %+v, want 3 unique analyses", stats)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", row.Point, row.Error)
		}
		seen[row.Key] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 couplings produced %d distinct keys", len(seen))
	}
	// Stronger coupling on the ring mixes slower.
	if !(res.Rows[0].MixingTime < res.Rows[2].MixingTime) {
		t.Fatalf("t_mix not increasing in δ: %d vs %d", res.Rows[0].MixingTime, res.Rows[2].MixingTime)
	}
}

// countBuilds counts the runner's table builds and tracks how many shared
// tables are held at once while fn runs.
func countBuilds(t *testing.T, fn func()) (builds int, peak int) {
	t.Helper()
	var mu sync.Mutex
	live := 0
	onBuild = func() {
		mu.Lock()
		builds++
		mu.Unlock()
	}
	onShared = func(delta int) {
		mu.Lock()
		live += delta
		peak = max(peak, live)
		mu.Unlock()
	}
	defer func() { onBuild, onShared = nil, nil }()
	fn()
	if live != 0 {
		t.Fatalf("%d shared tables still held after the run", live)
	}
	return builds, peak
}

// A β-sweep builds its game once in prep (for the digest) and once for
// the evaluators, whose points share it; a warm rerun only digests.
func TestSweepBuildsEachGameOncePerRun(t *testing.T) {
	g := &Grid{
		Axes: Axes{Beta: &Schedule{From: 0.25, To: 4, Steps: 16}},
		Base: spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1},
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Eval: DirectEvalScratch(st, nil, nil), Workers: 2}
	var cold, warm RunStats
	builds, peak := countBuilds(t, func() {
		if _, cold, err = r.Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if cold.Analyzed != 16 || builds != 2 || peak != 1 {
		t.Fatalf("cold run: %d analyzed, %d builds, %d tables at peak; want 16, 2, 1", cold.Analyzed, builds, peak)
	}
	builds, peak = countBuilds(t, func() {
		if _, warm, err = r.Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if warm.StoreHits != 16 || builds != 1 || peak != 0 {
		t.Fatalf("warm run: %d store hits, %d builds, %d tables at peak; want 16, 1, 0", warm.StoreHits, builds, peak)
	}
}

// Three specs of four β each build six times at two workers, and the
// runner never holds more shared tables than workers + 1: a spec's table
// is dropped when its last job finishes.
func TestSweepSharedTablesBounded(t *testing.T) {
	g := &Grid{
		Axes: Axes{N: []int{6, 7, 8}, Beta: &Schedule{From: 0.5, To: 2, Steps: 4}},
		Base: spec.Spec{Game: "doublewell", C: 2, Delta1: 1},
	}
	r := &Runner{Eval: DirectEvalScratch(nil, nil, nil), Workers: 2}
	var stats RunStats
	builds, peak := countBuilds(t, func() {
		var err error
		if _, stats, err = r.Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Analyzed != 12 || builds != 6 {
		t.Fatalf("%d analyzed in %d builds; want 12 in 6", stats.Analyzed, builds)
	}
	if peak < 1 || peak > 3 {
		t.Fatalf("%d shared tables held at once; want 1..3", peak)
	}
}

// A spec whose build fails is built once, and every one of its points
// fails with the build's own error text.
func TestSweepFailedBuildFailsEveryPoint(t *testing.T) {
	bad := spec.Spec{Game: "no-such-family", N: 6, C: 2, Delta1: 1}
	_, want := bad.Build()
	if want == nil {
		t.Fatal("the bad spec builds")
	}
	g := &Grid{
		Axes: Axes{Game: []string{"doublewell", "no-such-family"}, Beta: &Schedule{Values: []float64{0.5, 1, 1.5, 2}}},
		Base: spec.Spec{N: 6, C: 2, Delta1: 1},
	}
	var res *Result
	var stats RunStats
	builds, _ := countBuilds(t, func() {
		var err error
		if res, stats, err = (&Runner{Eval: DirectEvalScratch(nil, nil, nil), Workers: 2}).Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Analyzed != 4 || stats.Failed != 4 || builds != 3 {
		t.Fatalf("stats %+v in %d builds; want 4 analyzed, 4 failed, 3 builds", stats, builds)
	}
	for _, row := range res.Rows[4:] {
		if row.Error != want.Error() {
			t.Fatalf("point %d error %q, want %q", row.Point, row.Error, want.Error())
		}
	}
}

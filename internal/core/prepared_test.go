package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
	"logitdyn/internal/scratch"
	"logitdyn/internal/spec"
)

// preparedFamilies is one small game per built-in family, the same set
// the backend-parity tests run.
var preparedFamilies = []struct {
	name string
	s    spec.Spec
}{
	{"coordination", spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}},
	{"graphical-ring", spec.Spec{Game: "graphical", Graph: "ring", N: 4, Delta0: 3, Delta1: 2}},
	{"ising-ring", spec.Spec{Game: "ising", Graph: "ring", N: 5, Delta1: 1}},
	{"weighted-ring", spec.Spec{Game: "weighted", Graph: "ring", N: 4, Seed: 3}},
	{"doublewell", spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}},
	{"asymwell", spec.Spec{Game: "asymwell", N: 6, C: 2, Depth: 3, Shallow: 1}},
	{"dominant", spec.Spec{Game: "dominant", N: 3, M: 3}},
	{"congestion", spec.Spec{Game: "congestion", N: 4, M: 3}},
	{"random", spec.Spec{Game: "random", N: 4, M: 3, Seed: 7}},
}

var preparedBetas = []float64{0, 0.25, 0.5, 0.8, 1, 1.5, 2, 3}

// bitsDiff walks two values of one type and returns the path of the first
// difference, or "" when they are bit-equal. Floats compare by their bits,
// except that any two NaNs are equal; slices compare nil-ness too.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		return bitsDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d (nil %v) vs %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return fmt.Sprintf("%s: %v vs %v", path, x, y)
		}
		return ""
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
		return ""
	}
}

// sameOutcome fails t unless the two analyses agree: the same error text,
// or bit-equal reports.
func sameOutcome(t *testing.T, name string, got *Report, gerr error, want *Report, werr error) {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %v, fresh analysis %v", name, gerr, werr)
		}
		return
	}
	if d := bitsDiff("Report", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
		t.Fatalf("%s: report differs from a fresh analysis at %s", name, d)
	}
}

// One Prepared analyzed at 8 β concurrently gives, on both routes, every
// worker budget and with or without an arena, exactly the reports fresh
// analyses give; and no report aliases another's stats or equilibria.
func TestPreparedConcurrentAnalysesMatchFresh(t *testing.T) {
	for _, fam := range preparedFamilies {
		g, err := fam.s.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{"dense", "sparse"} {
			want := make([]*Report, len(preparedBetas))
			werr := make([]error, len(preparedBetas))
			for i, beta := range preparedBetas {
				want[i], werr[i] = AnalyzeGame(g, beta, Options{Backend: backend})
			}
			for _, workers := range []int{1, 2, 4} {
				for _, withArena := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/arena=%v", fam.name, backend, workers, withArena)
					p := Prepare(g)
					got := make([]*Report, len(preparedBetas))
					gerr := make([]error, len(preparedBetas))
					var wg sync.WaitGroup
					for i, beta := range preparedBetas {
						wg.Add(1)
						go func() {
							defer wg.Done()
							par := linalg.ParallelConfig{Workers: workers, MinRows: 1}
							if withArena {
								par.Arena = scratch.NewArena()
							}
							got[i], gerr[i] = p.AnalyzeCtx(t.Context(), beta, Options{Backend: backend, Parallel: par})
							if withArena {
								// Recycle the arena into another analysis: a
								// report that kept arena memory would be
								// overwritten.
								par.Arena.Reset()
								next := preparedBetas[(i+1)%len(preparedBetas)]
								_, _ = p.AnalyzeCtx(t.Context(), next, Options{Backend: backend, Parallel: par})
								par.Arena.Reset()
							}
						}()
					}
					wg.Wait()
					for i, beta := range preparedBetas {
						sameOutcome(t, fmt.Sprintf("%s β=%g", name, beta), got[i], gerr[i], want[i], werr[i])
					}
					checkNoAliasing(t, name, got, want)
				}
			}
		}
	}
}

// checkNoAliasing mutates the first successful report's stats, equilibria
// and dominant profile, then checks every other report still matches its
// fresh analysis.
func checkNoAliasing(t *testing.T, name string, got, want []*Report) {
	t.Helper()
	first := -1
	for i, r := range got {
		if r != nil {
			first = i
			break
		}
	}
	if first < 0 {
		return
	}
	r := got[first]
	if r.Stats != nil {
		r.Stats.Zeta++
		r.Stats.DeltaPhi = math.NaN()
		r.Stats.Phi = nil
	}
	for i := range r.PureNash {
		r.PureNash[i] = -1
	}
	for i := range r.DominantProfile {
		r.DominantProfile[i] = -1
	}
	for i := first + 1; i < len(got); i++ {
		if got[i] == nil {
			continue
		}
		if d := bitsDiff("Report", reflect.ValueOf(got[i]), reflect.ValueOf(want[i])); d != "" {
			t.Fatalf("%s: mutating one report changed another at %s", name, d)
		}
	}
}

// The bounds core builds from the prepared dominant-profile scan are
// bit-equal to ReportFromStats, which scans the game itself.
func TestBoundsMatchReportFromStatsOnDominantGame(t *testing.T) {
	g, err := spec.Spec{Game: "dominant", N: 3, M: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := game.AsPotential(g)
	if !ok {
		t.Skip("the dominant family declares no potential, so no bounds are reported")
	}
	for _, beta := range []float64{0.5, 2, 10} {
		rep, err := AnalyzeGame(g, beta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mixing.ReportFromStats(p, beta, mixing.DefaultEps, rep.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if !want.HasDominantProfile {
			t.Fatalf("β=%g: the dominant game has no dominant profile", beta)
		}
		if d := bitsDiff("Bounds", reflect.ValueOf(rep.Bounds), reflect.ValueOf(want)); d != "" {
			t.Fatalf("β=%g: bounds differ from ReportFromStats at %s", beta, d)
		}
	}
}

// Analyzing a Prepared many times computes its facts once: one pure Nash
// scan for any number of β values.
func TestPreparedScansOnce(t *testing.T) {
	g, err := game.NewDoubleWell(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	scan := &callLog{Potential: g, sp: game.SpaceOf(g)}
	game.PureNashEquilibriaPar(scan, 1e-12, linalg.Serial)
	an := &callLog{Potential: g, sp: game.SpaceOf(g)}
	p := Prepare(an)
	for _, beta := range []float64{0.5, 1, 2} {
		if _, err := p.AnalyzeCtx(t.Context(), beta, Options{Parallel: linalg.Serial}); err != nil {
			t.Fatal(err)
		}
	}
	if n := occurrences(an.calls, scan.calls); n != 1 {
		t.Fatalf("three analyses of one Prepared scanned for pure Nash equilibria %d times, want once", n)
	}
}

// FuzzPreparedAnalyze holds a Prepared to fresh analyses on random table
// games — with a declared Φ, an undeclared exact potential, or no
// potential at all — at three β each, on the dense and sparse routes.
func FuzzPreparedAnalyze(f *testing.F) {
	f.Add(uint64(0x15), uint8(0), false, uint64(3))
	f.Add(uint64(0x2b), uint8(1), true, uint64(8))
	f.Add(uint64(0x7fff), uint8(2), false, uint64(1))
	// A declared Φ whose extremes are zeros of both signs: PhiMin and
	// PhiMax must not depend on the worker budget's shard order.
	f.Add(uint64(23), uint8(63), true, uint64(98))
	f.Fuzz(func(t *testing.T, shape uint64, mode uint8, sparse bool, seed uint64) {
		var sizes []int
		for prod, bits := 1, shape>>3; len(sizes) <= int(shape%5); bits >>= 2 {
			m := 1 + int(bits%4)
			if prod*m > 64 {
				break
			}
			sizes = append(sizes, m)
			prod *= m
		}
		g := game.NewTableGame(sizes)
		size := g.Space().Size()
		r := rng.New(seed)
		mode %= 3
		switch mode {
		case 0, 1: // an exact potential game, declared or not
			phi := make([]float64, size)
			for idx := range phi {
				phi[idx] = math.Round(2 * r.NormFloat64())
			}
			if mode == 0 {
				g.SetPhiTable(phi)
			}
			for i := range sizes {
				for idx, v := range phi {
					g.SetUtilityIndexed(i, idx, -v)
				}
			}
		default: // arbitrary utilities
			for i := range sizes {
				for idx := 0; idx < size; idx++ {
					g.SetUtilityIndexed(i, idx, math.Round(2*r.NormFloat64()))
				}
			}
		}
		backend := "dense"
		if sparse {
			backend = "sparse"
		}
		p := Prepare(g)
		for _, beta := range []float64{0.3, 1.1, 2.5} {
			opts := Options{Backend: backend, MaxT: 1 << 16, Parallel: linalg.ParallelConfig{Workers: 2, MinRows: 1}}
			got, gerr := p.AnalyzeCtx(t.Context(), beta, opts)
			want, werr := AnalyzeGame(g, beta, Options{Backend: backend, MaxT: 1 << 16})
			sameOutcome(t, fmt.Sprintf("sizes %v mode %d %s β=%g", sizes, mode, backend, beta), got, gerr, want, werr)
		}
	})
}

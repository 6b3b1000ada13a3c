package logit

import (
	"math"
	"slices"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
	"logitdyn/internal/spec"
)

// refEntry is one transition of the reference row list.
type refEntry struct {
	To int
	P  float64
}

// referenceRows builds the Eq. (3) chain as one row list per profile, the
// plainest form of the row rule: one entry per (player, strategy)
// deviation with non-zero probability, its target found with
// Space.WithDigit, then the self-loop. RowGen.Row must reproduce it entry
// for entry and bit for bit.
func referenceRows(d *Dynamics) [][]refEntry {
	sp := d.Space()
	n := sp.Players()
	rows := make([][]refEntry, sp.Size())
	x := make([]int, n)
	for idx := range rows {
		sp.Decode(idx, x)
		self := 0.0
		var row []refEntry
		for i := 0; i < n; i++ {
			for v, p := range d.UpdateProbs(i, x, nil) {
				if v == x[i] {
					self += p
					continue
				}
				if p == 0 {
					continue
				}
				row = append(row, refEntry{To: sp.WithDigit(idx, i, v), P: p / float64(n)})
			}
		}
		rows[idx] = append(row, refEntry{To: idx, P: self / float64(n)})
	}
	return rows
}

// referenceEvolve is one distribution step dst = src·P on the row list.
func referenceEvolve(rows [][]refEntry, dst, src []float64) {
	clear(dst)
	for i, mass := range src {
		if mass == 0 {
			continue
		}
		for _, e := range rows[i] {
			dst[e.To] += mass * e.P
		}
	}
}

// checkCSRMatchesReference asserts that the CSR arrays hold exactly the
// reference rows: same row pointers, targets, order and float bits.
func checkCSRMatchesReference(t *testing.T, c *linalg.CSR, rows [][]refEntry) {
	t.Helper()
	if len(c.RowPtr) != len(rows)+1 {
		t.Fatalf("CSR has %d row pointers for %d rows", len(c.RowPtr), len(rows))
	}
	k := 0
	for i, row := range rows {
		if c.RowPtr[i] != k {
			t.Fatalf("row %d starts at %d, reference at %d", i, c.RowPtr[i], k)
		}
		for _, e := range row {
			if c.Col[k] != e.To || math.Float64bits(c.Val[k]) != math.Float64bits(e.P) {
				t.Fatalf("row %d entry %d: CSR (%d, %v), reference (%d, %v)", i, k-c.RowPtr[i], c.Col[k], c.Val[k], e.To, e.P)
			}
			k++
		}
	}
	if c.RowPtr[len(rows)] != k || len(c.Col) != k || len(c.Val) != k {
		t.Fatalf("CSR holds %d entries, reference %d", len(c.Col), k)
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

var rowFamilies = []spec.Spec{
	{Game: "coordination", Delta0: 3, Delta1: 2},
	{Game: "graphical", Graph: "ring", N: 4, Delta0: 3, Delta1: 2},
	{Game: "ising", Graph: "ring", N: 5, Delta1: 1},
	{Game: "weighted", Graph: "ring", N: 4, Seed: 3},
	{Game: "doublewell", N: 6, C: 2, Delta1: 1},
	{Game: "asymwell", N: 6, C: 2, Depth: 3, Shallow: 1},
	{Game: "dominant", N: 3, M: 3},
	{Game: "congestion", N: 4, M: 3},
	{Game: "random", N: 4, M: 3, Seed: 7},
}

// TestTransitionRowsMatchReference pins every backend built from the row
// kernel to the row-list reference, bit for bit: the CSR arrays, the dense
// matrix, the CSR transpose apply (the evolution step) and both matrix-free
// products, on every family at budgets 1/2/4. β = 0 gives uniform rows;
// β = 2000 underflows some σ entries to zero, so the CSR build compacts.
func TestTransitionRowsMatchReference(t *testing.T) {
	compacted := false
	for _, s := range rowFamilies {
		g, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, beta := range []float64{0, 0.8, 2000} {
			d := mustDyn(t, g, beta)
			rows := referenceRows(d)
			size := len(rows)
			want := linalg.NewDense(size, size)
			for i, row := range rows {
				for _, e := range row {
					want.Set(i, e.To, want.At(i, e.To)+e.P)
				}
			}
			r := rng.New(uint64(size))
			x := make([]float64, size)
			for i := range x {
				x[i] = r.Float64()
			}
			x[0] = 0 // a zero-mass row is skipped by the transpose apply
			wantMV := make([]float64, size)
			for i, row := range rows {
				acc := 0.0
				for _, e := range row {
					acc += e.P * x[e.To]
				}
				wantMV[i] = acc
			}
			wantT := make([]float64, size)
			referenceEvolve(rows, wantT, x)
			got := make([]float64, size)
			for _, workers := range []int{1, 2, 4} {
				par := linalg.ParallelConfig{Workers: workers, MinRows: 1}
				c := d.TransitionCSRPar(par)
				checkCSRMatchesReference(t, c, rows)
				compacted = compacted || c.NNZ() < size*d.rowWidth()
				if !bitsEqual(d.TransitionDensePar(par).Data, want.Data) {
					t.Fatalf("%s β=%g workers=%d: dense P differs from the reference", s.Game, beta, workers)
				}
				c.MatVecTrans(got, x)
				if !bitsEqual(got, wantT) {
					t.Fatalf("%s β=%g workers=%d: CSR MatVecTrans differs from the reference evolution", s.Game, beta, workers)
				}
				mf := d.MatFree().WithParallel(par)
				mf.MatVec(got, x)
				if !bitsEqual(got, wantMV) {
					t.Fatalf("%s β=%g workers=%d: MatFree MatVec differs from the reference", s.Game, beta, workers)
				}
				mf.MatVecTrans(got, x)
				if !bitsEqual(got, wantT) {
					t.Fatalf("%s β=%g workers=%d: MatFree MatVecTrans differs from the reference", s.Game, beta, workers)
				}
			}
		}
	}
	if !compacted {
		t.Fatal("no family underflowed a σ entry; the compaction path went untested")
	}
}

// FuzzTransitionRows builds random table games with 1–4 strategies per
// player at β = 0, a moderate β or a huge one, and checks the CSR build
// against the row-list reference bit for bit.
func FuzzTransitionRows(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint64(7))
	f.Add(uint64(0x2f), uint8(0), uint64(3))
	f.Add(uint64(0x3b5), uint8(2), uint64(9))
	f.Fuzz(func(t *testing.T, shape uint64, betaSel uint8, seed uint64) {
		beta := []float64{0, 1.3, 5000}[betaSel%3]
		sizes := make([]int, 1+shape%4)
		for i := range sizes {
			sizes[i] = 1 + int(shape>>(2+2*i)%4)
		}
		g := game.NewTableGame(sizes)
		r := rng.New(seed)
		for i := range sizes {
			for idx := 0; idx < g.Space().Size(); idx++ {
				g.SetUtilityIndexed(i, idx, math.Round(4*r.NormFloat64()))
			}
		}
		d, err := New(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRMatchesReference(t, d.TransitionCSRPar(linalg.ParallelConfig{Workers: 2, MinRows: 1}), referenceRows(d))
	})
}

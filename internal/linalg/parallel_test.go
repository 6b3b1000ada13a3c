package linalg

import (
	"math"
	"runtime"
	"testing"
)

// The determinism contract of the parallel layer: every helper returns
// bit-identical results for every worker count. These tests force real
// splitting with MinRows: 1 and sizes beyond the fixed block/shard lengths.

func testVector(n int, seed float64) []float64 {
	v := make([]float64, n)
	x := seed
	for i := range v {
		// A fixed quasi-random fill keeps the test hermetic.
		x = math.Mod(x*997.31+0.137, 1)
		v[i] = x - 0.5
	}
	return v
}

var workerCounts = []int{1, 2, 3, 4, 8}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range workerCounts {
		cfg := ParallelConfig{Workers: w, MinRows: 1}
		n := 10_001
		seen := make([]int32, n)
		cfg.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestBlockSumWorkerInvariant(t *testing.T) {
	// Well past one block so the block structure actually matters.
	v := testVector(3*ReduceBlock+17, 0.4)
	want := ParallelConfig{Workers: 1}.BlockSum(len(v), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += v[i]
		}
		return s
	})
	for _, w := range workerCounts[1:] {
		got := ParallelConfig{Workers: w, MinRows: 1}.BlockSum(len(v), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += v[i]
			}
			return s
		})
		if got != want {
			t.Fatalf("workers=%d: BlockSum %v != serial %v", w, got, want)
		}
	}
}

func TestDotWorkerInvariantAndSerialAgreementBelowBlock(t *testing.T) {
	small := testVector(ReduceBlock, 0.2)
	small2 := testVector(ReduceBlock, 0.7)
	if got, want := (ParallelConfig{Workers: 4, MinRows: 1}).Dot(small, small2), Dot(small, small2); got != want {
		t.Fatalf("below one block, parallel Dot %v must equal serial Dot %v", got, want)
	}
	a := testVector(5*ReduceBlock+3, 0.3)
	b := testVector(5*ReduceBlock+3, 0.9)
	want := ParallelConfig{Workers: 1}.Dot(a, b)
	for _, w := range workerCounts[1:] {
		if got := (ParallelConfig{Workers: w, MinRows: 1}).Dot(a, b); got != want {
			t.Fatalf("workers=%d: Dot %v != workers=1 %v", w, got, want)
		}
	}
}

func TestScatterWorkerInvariant(t *testing.T) {
	// Multiple fixed shards: rows > scatterShardRows.
	rows, cols := 2*scatterShardRows+101, 257
	x := testVector(rows, 0.6)
	run := func(w int) []float64 {
		dst := make([]float64, cols)
		ParallelConfig{Workers: w, MinRows: 1}.Scatter(rows, cols, dst, func(lo, hi int, acc []float64) {
			for i := lo; i < hi; i++ {
				acc[i%cols] += x[i]
			}
		})
		return dst
	}
	want := run(1)
	for _, w := range workerCounts[1:] {
		got := run(w)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: Scatter dst[%d] = %v, want %v", w, j, got[j], want[j])
			}
		}
	}
}

func TestCSRMatVecAndTransWorkerInvariant(t *testing.T) {
	// A banded stochastic-ish matrix big enough for two scatter shards.
	n := scatterShardRows + 513
	rowPtr := make([]int, n+1)
	var col []int
	var val []float64
	for i := 0; i < n; i++ {
		for d := -1; d <= 1; d++ {
			j := (i + d + n) % n
			col = append(col, j)
			val = append(val, 1.0/3+float64(d)*0.01)
		}
		rowPtr[i+1] = len(col)
	}
	x := testVector(n, 0.8)
	run := func(w int) ([]float64, []float64) {
		m := NewCSR(n, n, rowPtr, col, val).WithParallel(ParallelConfig{Workers: w, MinRows: 1})
		mv := make([]float64, n)
		mt := make([]float64, n)
		m.MatVec(mv, x)
		m.MatVecTrans(mt, x)
		return mv, mt
	}
	wantV, wantT := run(1)
	for _, w := range workerCounts[1:] {
		gotV, gotT := run(w)
		for i := range wantV {
			if gotV[i] != wantV[i] {
				t.Fatalf("workers=%d: MatVec[%d] differs", w, i)
			}
			if gotT[i] != wantT[i] {
				t.Fatalf("workers=%d: MatVecTrans[%d] differs", w, i)
			}
		}
	}
}

func TestCSRFromPartsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name        string
		rows, cols  int
		rowPtr, col []int
		val         []float64
	}{
		{"non-positive shape", 0, 1, []int{0}, nil, nil},
		{"short rowptr", 2, 2, []int{0, 1}, []int{0}, []float64{1}},
		{"rowptr start", 1, 1, []int{1, 1}, []int{0}, []float64{1}},
		{"rowptr end", 1, 1, []int{0, 2}, []int{0}, []float64{1}},
		{"col/val mismatch", 1, 1, []int{0, 1}, []int{0}, []float64{1, 2}},
		{"decreasing rowptr", 2, 2, []int{0, 2, 1}, []int{0, 1}, []float64{1, 1}},
		{"col out of range", 1, 2, []int{0, 1}, []int{2}, []float64{1}},
		{"negative col", 1, 2, []int{0, 1}, []int{-1}, []float64{1}},
	}
	for _, c := range cases {
		if _, err := CSRFromParts(c.rows, c.cols, c.rowPtr, c.col, c.val); err == nil {
			t.Errorf("%s: accepted malformed structure", c.name)
		}
	}
	if _, err := CSRFromParts(2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 1}); err != nil {
		t.Fatalf("rejected a valid structure: %v", err)
	}
}

func TestTeamReductionsMatchDotAndAxpy(t *testing.T) {
	// Budgets above the host's cores still build teams that large.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	for _, n := range []int{1, ReduceBlock - 1, ReduceBlock, 3*ReduceBlock + 17, 9 * ReduceBlock} {
		x, z := testVector(n, 0.3), testVector(n, 0.7)
		for _, w := range workerCounts {
			y, want := testVector(n, 0.5), testVector(n, 0.5)
			team := ParallelConfig{Workers: w}.NewTeam(n)
			// Several jobs on one team, each with two reductions.
			for job := 0; job < 3; job++ {
				var dot, axpyDot float64
				team.Run(func(m *TeamMember) {
					d := m.Dot(y, z)
					a := m.AxpyDot(0.25, x, y, z)
					if m.Leader() {
						dot, axpyDot = d, a
					}
				})
				wantDot := Serial.Dot(want, z)
				Serial.Axpy(0.25, x, want)
				if dot != wantDot || axpyDot != Serial.Dot(want, z) {
					t.Fatalf("n=%d workers=%d job %d: team dots %v, %v; Dot %v, %v", n, w, job, dot, axpyDot, wantDot, Serial.Dot(want, z))
				}
				for i := range y {
					if y[i] != want[i] {
						t.Fatalf("n=%d workers=%d job %d: y[%d] = %v, Axpy gives %v", n, w, job, i, y[i], want[i])
					}
				}
			}
			team.Close()
		}
	}
}

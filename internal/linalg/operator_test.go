package linalg

import (
	"math"
	"testing"
)

func testDense3x4() *Dense {
	return FromRows([][]float64{
		{1, 0, 2, 0},
		{0, 3, 0, 0},
		{-1, 0, 0, 4},
	})
}

func TestCSRFromDenseRoundTrip(t *testing.T) {
	d := testDense3x4()
	c := CSRFromDense(d)
	if c.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", c.NNZ())
	}
	if diff := c.Dense().MaxAbsDiff(d); diff != 0 {
		t.Fatalf("CSR round trip differs by %g", diff)
	}
	if got := c.At(0, 2); got != 2 {
		t.Fatalf("At(0,2) = %g, want 2", got)
	}
	if got := c.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %g, want 0", got)
	}
}

func TestOperatorMatVecParity(t *testing.T) {
	d := testDense3x4()
	c := CSRFromDense(d)
	x := []float64{1, -2, 0.5, 3}
	want := make([]float64, 3)
	d.MatVec(want, x)
	got := make([]float64, 3)
	c.MatVec(got, x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-15 {
			t.Fatalf("MatVec[%d]: dense %g vs CSR %g", i, want[i], got[i])
		}
	}

	y := []float64{2, -1, 0.25}
	wantT := make([]float64, 4)
	d.MatVecTrans(wantT, y)
	gotT := make([]float64, 4)
	c.MatVecTrans(gotT, y)
	for i := range wantT {
		if math.Abs(wantT[i]-gotT[i]) > 1e-15 {
			t.Fatalf("MatVecTrans[%d]: dense %g vs CSR %g", i, wantT[i], gotT[i])
		}
	}
}

func TestCSRDuplicateEntriesAccumulate(t *testing.T) {
	// Row 0 stores (0,1) twice: At, Dense and MatVec must all see 3.
	c := NewCSR(2, 2, []int{0, 2, 3}, []int{1, 1, 0}, []float64{1, 2, 5})
	if got := c.At(0, 1); got != 3 {
		t.Fatalf("At(0,1) = %g, want 3", got)
	}
	dst := make([]float64, 2)
	c.MatVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 5 {
		t.Fatalf("MatVec = %v, want [3 5]", dst)
	}
}

func TestRowSums(t *testing.T) {
	d := testDense3x4()
	sums := RowSums(d)
	want := []float64{3, 3, 3}
	for i := range want {
		if math.Abs(sums[i]-want[i]) > 1e-15 {
			t.Fatalf("RowSums[%d] = %g, want %g", i, sums[i], want[i])
		}
	}
}

func TestNewCSRValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad shape", func() { NewCSR(0, 1, []int{0}, nil, nil) })
	mustPanic("bad rowptr len", func() { NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}) })
	mustPanic("col out of range", func() { NewCSR(1, 2, []int{0, 1}, []int{2}, []float64{1}) })
	mustPanic("decreasing rowptr", func() { NewCSR(2, 2, []int{0, 1, 0}, []int{0}, []float64{1}) })
	c := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 1})
	mustPanic("MatVec size mismatch", func() { c.MatVec(make([]float64, 2), make([]float64, 3)) })
	mustPanic("MatVecTrans size mismatch", func() { c.MatVecTrans(make([]float64, 3), make([]float64, 2)) })
}

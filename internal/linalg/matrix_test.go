package linalg

import (
	"math"
	"testing"
)

func TestNewDensePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0, 3) did not panic")
		}
	}()
	NewDense(0, 3)
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[1] = 7
	if m.At(1, 1) != 7 {
		t.Errorf("Row must be a mutable view")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", dst)
	}
}

func TestVecMul(t *testing.T) {
	// Row vector times matrix: the μP distribution step.
	m := FromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	dst := make([]float64, 2)
	m.VecMul(dst, []float64{1, 0})
	if dst[0] != 0.5 || dst[1] != 0.5 {
		t.Fatalf("VecMul e0·P = %v, want [0.5 0.5]", dst)
	}
	m.VecMul(dst, []float64{0.5, 0.5})
	if !almostEqual(dst[0], 0.375, 1e-15) || !almostEqual(dst[1], 0.625, 1e-15) {
		t.Fatalf("VecMul = %v, want [0.375 0.625]", dst)
	}
}

func TestMulMatchesManual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if c.MaxAbsDiff(want) != 0 {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if a.Mul(Identity(3)).MaxAbsDiff(a) != 0 {
		t.Fatal("A·I != A")
	}
	if Identity(3).Mul(a).MaxAbsDiff(a) != 0 {
		t.Fatal("I·A != A")
	}
}

// Mul must agree with a naive triple loop on larger matrices, exercising the
// parallel path (n >= 64 rows).
func TestMulParallelAgreesWithNaive(t *testing.T) {
	n := 80
	a, b := NewDense(n, n), NewDense(n, n)
	s := 1.0
	for i := range a.Data {
		s = math.Mod(s*1.37+0.11, 1)
		a.Data[i] = s
		s = math.Mod(s*1.91+0.07, 1)
		b.Data[i] = s
	}
	got := a.Mul(b)
	want := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, acc)
		}
	}
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("parallel Mul differs from naive by %v", d)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := FromRows([][]float64{{1, 2}, {2, 1}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := FromRows([][]float64{{1, 2}, {3, 1}})
	if asym.IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric at tight tol")
	}
	if !asym.IsSymmetric(2) {
		t.Error("asymmetric matrix should pass with loose tol")
	}
	rect := NewDense(2, 3)
	if rect.IsSymmetric(1) {
		t.Error("rectangular matrix cannot be symmetric")
	}
}

func TestCloneDeep(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares data")
	}
}

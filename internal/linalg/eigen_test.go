package linalg

import (
	"math"
	"slices"
	"testing"
)

// randomSymmetric builds a deterministic pseudo-random symmetric matrix.
func randomSymmetric(n int, seed float64) *Dense {
	m := NewDense(n, n)
	s := seed
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s = math.Mod(s*3.99*(1-s)+0.013, 1)
			v := s - 0.5
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// checkDecomposition verifies A·v_k = λ_k·v_k and orthonormality of V.
func checkDecomposition(t *testing.T, a *Dense, es *EigenSym, tol float64) {
	t.Helper()
	n := a.Rows
	// Residuals.
	v := make([]float64, n)
	av := make([]float64, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			v[i] = es.Vectors.At(i, k)
		}
		a.MulVec(av, v)
		for i := 0; i < n; i++ {
			if d := math.Abs(av[i] - es.Values[k]*v[i]); d > tol {
				t.Fatalf("eigenpair %d residual %v > %v", k, d, tol)
			}
		}
	}
	// Orthonormality: V^T V = I.
	vtv := es.Vectors.T().Mul(es.Vectors)
	if d := vtv.MaxAbsDiff(Identity(n)); d > tol {
		t.Fatalf("V^T V deviates from I by %v", d)
	}
	// Sorted ascending.
	for k := 1; k < n; k++ {
		if es.Values[k] < es.Values[k-1] {
			t.Fatalf("eigenvalues not sorted: %v", es.Values)
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	es, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if !almostEqual(es.Values[i], want[i], 1e-12) {
			t.Fatalf("Values = %v, want %v", es.Values, want)
		}
	}
	checkDecomposition(t, a, es, 1e-12)
}

func TestSymEigen2x2Closed(t *testing.T) {
	// [[a, b], [b, c]] has eigenvalues (a+c)/2 ± sqrt(((a-c)/2)^2 + b^2).
	a, b, c := 2.0, 1.5, -1.0
	m := FromRows([][]float64{{a, b}, {b, c}})
	es, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	mid, rad := (a+c)/2, math.Hypot((a-c)/2, b)
	if !almostEqual(es.Values[0], mid-rad, 1e-12) || !almostEqual(es.Values[1], mid+rad, 1e-12) {
		t.Fatalf("Values = %v, want [%v %v]", es.Values, mid-rad, mid+rad)
	}
	checkDecomposition(t, m, es, 1e-12)
}

func TestSymEigen1x1(t *testing.T) {
	es, err := SymEigen(FromRows([][]float64{{42}}))
	if err != nil {
		t.Fatal(err)
	}
	if es.Values[0] != 42 {
		t.Fatalf("Values = %v", es.Values)
	}
}

func TestSymEigenRandomSizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 40} {
		a := randomSymmetric(n, 0.37)
		es, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDecomposition(t, a, es, 1e-9)
		// Trace equals the eigenvalue sum.
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		if !almostEqual(tr, Sum(es.Values), 1e-9) {
			t.Fatalf("n=%d: trace %v != Σλ %v", n, tr, Sum(es.Values))
		}
	}
}

func TestSymEigenInPlaceReusesInput(t *testing.T) {
	a := randomSymmetric(16, 0.37)
	want, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	z := a.Clone()
	got, err := SymEigenInPlace(z)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vectors != z {
		t.Fatal("SymEigenInPlace must return its input as Vectors")
	}
	if !slices.Equal(got.Values, want.Values) || !slices.Equal(got.Vectors.Data, want.Vectors.Data) {
		t.Fatal("SymEigenInPlace differs from SymEigen")
	}
}

func TestSymEigenRepeatedEigenvalues(t *testing.T) {
	// 2·I plus a rank-one bump: eigenvalues {2, 2, 2+3}.
	a := Identity(3)
	Scale(2, a.Data)
	a.Set(0, 0, 5)
	es, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 2, 5}
	for i := range want {
		if !almostEqual(es.Values[i], want[i], 1e-12) {
			t.Fatalf("Values = %v, want %v", es.Values, want)
		}
	}
	checkDecomposition(t, a, es, 1e-12)
}

func TestSymEigenRejectsNaN(t *testing.T) {
	a := Identity(2)
	a.Set(0, 1, math.NaN())
	a.Set(1, 0, math.NaN())
	if _, err := SymEigen(a); err == nil {
		t.Fatal("SymEigen accepted NaN input")
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3)); err == nil {
		t.Fatal("SymEigen accepted non-square input")
	}
}

func TestJacobiAgreesWithQL(t *testing.T) {
	for _, n := range []int{2, 4, 7, 12} {
		a := randomSymmetric(n, 0.61)
		ql, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		jac, err := JacobiEigen(a, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !almostEqual(ql.Values[i], jac.Values[i], 1e-9) {
				t.Fatalf("n=%d eigenvalue %d: QL %v vs Jacobi %v", n, i, ql.Values[i], jac.Values[i])
			}
		}
		checkDecomposition(t, a, jac, 1e-9)
	}
}

func TestJacobiRejectsNonSquare(t *testing.T) {
	if _, err := JacobiEigen(NewDense(2, 3), 10); err == nil {
		t.Fatal("JacobiEigen accepted non-square input")
	}
}

// A stochastic-matrix-shaped test: the symmetrized lazy random walk on the
// complete graph K_n has eigenvalue 1 (top) and (n·(1/2) - ... ) degenerate
// rest; here we just check the top eigenvalue is exactly 1 and all others lie
// in [-1, 1].
func TestSymEigenStochasticSpectrumRange(t *testing.T) {
	n := 10
	p := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				p.Set(i, j, 0.5)
			} else {
				p.Set(i, j, 0.5/float64(n-1))
			}
		}
	}
	es, err := SymEigen(p)
	if err != nil {
		t.Fatal(err)
	}
	top := es.Values[n-1]
	if !almostEqual(top, 1, 1e-12) {
		t.Fatalf("top eigenvalue = %v, want 1", top)
	}
	for _, l := range es.Values {
		if l < -1-1e-12 || l > 1+1e-12 {
			t.Fatalf("eigenvalue %v outside [-1, 1]", l)
		}
	}
}

func BenchmarkSymEigen64(b *testing.B) {
	a := randomSymmetric(64, 0.29)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen256(b *testing.B) {
	a := randomSymmetric(256, 0.29)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

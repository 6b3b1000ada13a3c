package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
	// Par is the worker budget for this matrix's parallel loops; the zero
	// value selects GOMAXPROCS. It never affects results (see parallel.go).
	Par ParallelConfig
}

// NewDense allocates a zeroed r×c matrix. It panics on non-positive sizes.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic("linalg: NewDense with non-positive size")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: FromRows with ragged input")
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data), Par: m.Par}
}

// WithParallel sets the matrix's worker budget and returns it.
func (m *Dense) WithParallel(par ParallelConfig) *Dense {
	m.Par = par
	return m
}

// T returns a newly allocated transpose.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: MulVec size mismatch")
	}
	m.Par.For(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = Dot(m.Row(i), x)
		}
	})
}

// VecMul computes dst = x^T * m (a row vector times the matrix), the
// distribution-evolution step μP. dst must have length m.Cols and x length
// m.Rows; dst and x must not alias.
func (m *Dense) VecMul(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("linalg: VecMul size mismatch")
	}
	Fill(dst, 0)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		Axpy(xi, m.Row(i), dst)
	}
}

// Mul returns m * b, parallelized over rows of the result.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("linalg: Mul size mismatch")
	}
	out := NewDense(m.Rows, b.Cols)
	m.Par.For(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := m.Row(i)
			orow := out.Row(i)
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				Axpy(aik, b.Row(k), orow)
			}
		}
	})
	return out
}

// MaxAbsDiff returns max_ij |m_ij - b_ij|. It panics on shape mismatch.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	d := 0.0
	for i, v := range m.Data {
		if a := math.Abs(v - b.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}

package markov

import (
	"errors"
	"fmt"
	"math"

	"logitdyn/internal/linalg"
)

// Entry is one sparse transition: probability P of moving to state To.
type Entry struct {
	To int
	P  float64
}

// Sparse is a row-sparse transition matrix. Logit-dynamics chains have at
// most 1 + Σ_i(|S_i|−1) non-zeros per row, so sparse evolution scales to
// profile spaces far beyond what a dense matrix can hold.
type Sparse struct {
	N    int
	Rows [][]Entry
}

// NewSparse allocates an empty sparse chain on n states.
func NewSparse(n int) *Sparse {
	if n <= 0 {
		panic("markov: NewSparse with non-positive size")
	}
	return &Sparse{N: n, Rows: make([][]Entry, n)}
}

// CheckStochastic verifies rows are probability vectors within tol.
func (s *Sparse) CheckStochastic(tol float64) error {
	for i, row := range s.Rows {
		sum := 0.0
		for _, e := range row {
			if e.To < 0 || e.To >= s.N {
				return fmt.Errorf("markov: row %d has out-of-range target %d", i, e.To)
			}
			if e.P < -tol {
				return fmt.Errorf("markov: row %d has negative probability %g", i, e.P)
			}
			sum += e.P
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("markov: sparse row %d sums to %g", i, sum)
		}
	}
	return nil
}

// Dense materializes the sparse chain; entries targeting the same state
// accumulate. The dense form is a view of the sparse-first representation,
// needed only by the full eigendecomposition path.
func (s *Sparse) Dense() *linalg.Dense {
	d := linalg.NewDense(s.N, s.N)
	for i, row := range s.Rows {
		for _, e := range row {
			d.Set(i, e.To, d.At(i, e.To)+e.P)
		}
	}
	return d
}

// CSR compresses the row lists into a linalg.CSR matrix, the cache-friendly
// form the sparse analysis backend iterates.
func (s *Sparse) CSR() *linalg.CSR {
	nnz := 0
	for _, row := range s.Rows {
		nnz += len(row)
	}
	rowPtr := make([]int, s.N+1)
	col := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for i, row := range s.Rows {
		for _, e := range row {
			col = append(col, e.To)
			val = append(val, e.P)
		}
		rowPtr[i+1] = len(col)
	}
	return linalg.NewCSR(s.N, s.N, rowPtr, col, val)
}

// Dims makes *Sparse a linalg.Operator.
func (s *Sparse) Dims() (rows, cols int) { return s.N, s.N }

// MatVec computes dst = P·x, parallelized over row chunks.
func (s *Sparse) MatVec(dst, x []float64) {
	if len(x) != s.N || len(dst) != s.N {
		panic("markov: Sparse.MatVec size mismatch")
	}
	linalg.ParallelFor(s.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for _, e := range s.Rows[i] {
				acc += e.P * x[e.To]
			}
			dst[i] = acc
		}
	})
}

// MatVecTrans computes dst = Pᵀ·x = xP, the distribution-evolution step.
func (s *Sparse) MatVecTrans(dst, x []float64) {
	if len(x) != s.N || len(dst) != s.N {
		panic("markov: Sparse.MatVecTrans size mismatch")
	}
	s.Evolve(dst, x)
}

var _ linalg.Operator = (*Sparse)(nil)

// Evolve computes dst = src·P (one distribution step). dst and src must not
// alias and must have length N.
func (s *Sparse) Evolve(dst, src []float64) {
	if len(dst) != s.N || len(src) != s.N {
		panic("markov: Sparse.Evolve size mismatch")
	}
	linalg.Fill(dst, 0)
	for i, mass := range src {
		if mass == 0 {
			continue
		}
		for _, e := range s.Rows[i] {
			dst[e.To] += mass * e.P
		}
	}
}

// StationaryPower runs power iteration on the sparse chain.
func (s *Sparse) StationaryPower(tol float64, maxIter int) ([]float64, error) {
	mu, err := StationaryPowerOp(s, tol, maxIter)
	if err != nil {
		return nil, errors.New("markov: sparse power iteration did not converge")
	}
	return mu, nil
}

// At returns P(x, y) by scanning row x (rows are short for logit chains).
func (s *Sparse) At(x, y int) float64 {
	p := 0.0
	for _, e := range s.Rows[x] {
		if e.To == y {
			p += e.P
		}
	}
	return p
}

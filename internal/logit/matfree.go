package logit

import "logitdyn/internal/linalg"

// MatFree is the matrix-free transition operator: no part of the Eq. (3)
// matrix is ever tabulated. Every mat-vec regenerates each row from the
// game's utilities via RowGen, so the operator itself holds no O(N·n·m)
// arrays at all — the memory a run needs is whatever vectors the solver
// keeps (for Lanczos with full reorthogonalization, the k·N Krylov basis,
// with k bounded by the Ritz early stop). It trades per-iteration time
// (one UpdateProbs sweep per row per product) for the smallest possible
// operator footprint, which is what lets the Lanczos route reach profile
// spaces where even the CSR arrays are unwelcome.
type MatFree struct {
	d   *Dynamics
	n   int
	par linalg.ParallelConfig
}

// MatFree returns the matrix-free view of the dynamics' transition matrix
// under the default worker budget.
func (d *Dynamics) MatFree() *MatFree {
	return &MatFree{d: d, n: d.space.Size()}
}

// WithParallel sets the operator's worker budget and returns it. The
// budget never affects results: row generation is sharded over row ranges
// whose per-row outputs are independent, and the transpose combines fixed
// shards in shard order.
func (m *MatFree) WithParallel(par linalg.ParallelConfig) *MatFree {
	m.par = par
	return m
}

// Dims returns the N×N shape.
func (m *MatFree) Dims() (rows, cols int) { return m.n, m.n }

// MatVec computes dst = P·x, regenerating rows on the fly in parallel row
// chunks (each worker owns a RowGen and one row's col/val buffers).
func (m *MatFree) MatVec(dst, x []float64) {
	if len(x) != m.n || len(dst) != m.n {
		panic("logit: MatFree.MatVec size mismatch")
	}
	w := m.d.rowWidth()
	m.par.For(m.n, func(lo, hi int) {
		gen := m.d.NewRowGen()
		col, val := make([]int, w), make([]float64, w)
		for idx := lo; idx < hi; idx++ {
			k := gen.Row(idx, col, val)
			acc := 0.0
			for j := 0; j < k; j++ {
				acc += val[j] * x[col[j]]
			}
			dst[idx] = acc
		}
	})
}

// MatVecTrans computes dst = Pᵀ·x = xP by row scatter over fixed row
// shards (each shard owns a RowGen and a column accumulator); the partials
// combine in shard order, so the result is bit-identical for every worker
// count. The large-N spectral route needs only MatVec; this direction
// serves distribution evolution and parity checks.
func (m *MatFree) MatVecTrans(dst, x []float64) {
	if len(x) != m.n || len(dst) != m.n {
		panic("logit: MatFree.MatVecTrans size mismatch")
	}
	w := m.d.rowWidth()
	m.par.Scatter(m.n, m.n, dst, func(lo, hi int, acc []float64) {
		gen := m.d.NewRowGen()
		col, val := make([]int, w), make([]float64, w)
		for idx := lo; idx < hi; idx++ {
			mass := x[idx]
			if mass == 0 {
				continue
			}
			k := gen.Row(idx, col, val)
			for j := 0; j < k; j++ {
				acc[col[j]] += mass * val[j]
			}
		}
	})
}

var _ linalg.Operator = (*MatFree)(nil)

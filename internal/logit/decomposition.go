package logit

import (
	"errors"
	"math"

	"logitdyn/internal/linalg"
)

// Executable form of the Theorem 3.1 proof structure. The proof writes the
// transition matrix as the average of "single-player" matrices,
//
//	P = (1/n) Σ_i Σ_{z_-i} P^{(i, z_-i)},
//
// where P^{(i, z_-i)} acts only on the line of profiles that agree with
// z_-i off player i, and shows each term is positive semidefinite in the
// π-weighted inner product (each is proportional to a rank-one projector
// there). These helpers materialize the decomposition so tests can verify
// both facts numerically — the heart of why logit chains of potential games
// have no negative eigenvalues.

// SinglePlayerMatrix returns P^{(i, z_-i)} for the line through the profile
// with index anchor: entry (x, y) is σ_i(y_i | z_-i) when both x and y lie
// on the line, 0 elsewhere. The matrix is |S|×|S| but has at most
// |S_i|² non-zeros.
func (d *Dynamics) SinglePlayerMatrix(i int, anchor int) *linalg.Dense {
	sp := d.space
	size := sp.Size()
	m := linalg.NewDense(size, size)
	x := sp.Decode(anchor, nil)
	probs := d.UpdateProbs(i, x, nil)
	for vi := 0; vi < sp.Strategies(i); vi++ {
		row := sp.WithDigit(anchor, i, vi)
		for vj := 0; vj < sp.Strategies(i); vj++ {
			col := sp.WithDigit(anchor, i, vj)
			m.Set(row, col, probs[vj])
		}
	}
	return m
}

// SinglePlayerDecomposition reconstructs P as the average of all
// single-player matrices and returns it, for comparison against
// TransitionDense. Intended for small spaces (it allocates one dense matrix).
func (d *Dynamics) SinglePlayerDecomposition() *linalg.Dense {
	sp := d.space
	size := sp.Size()
	n := sp.Players()
	sum := linalg.NewDense(size, size)
	seen := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		for idx := 0; idx < size; idx++ {
			// One matrix per line: anchor each line at digit 0.
			anchor := sp.WithDigit(idx, i, 0)
			key := [2]int{i, anchor}
			if seen[key] {
				continue
			}
			seen[key] = true
			m := d.SinglePlayerMatrix(i, anchor)
			for k, v := range m.Data {
				if v != 0 {
					sum.Data[k] += v
				}
			}
		}
	}
	linalg.Scale(1/float64(n), sum.Data)
	return sum
}

// CheckSinglePlayerPSD verifies, for a potential game, that every
// single-player matrix is positive semidefinite in the π-weighted inner
// product: its symmetrization D^{1/2} P^{(i,z)} D^{−1/2} has no eigenvalue
// below −tol. This is the exact computation inside the Theorem 3.1 proof.
func (d *Dynamics) CheckSinglePlayerPSD(tol float64) error {
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		return err
	}
	sp := d.space
	size := sp.Size()
	sqrtPi := make([]float64, size)
	for k, v := range pi {
		sqrtPi[k] = math.Sqrt(v)
	}
	n := sp.Players()
	seen := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		for idx := 0; idx < size; idx++ {
			anchor := sp.WithDigit(idx, i, 0)
			key := [2]int{i, anchor}
			if seen[key] {
				continue
			}
			seen[key] = true
			m := d.SinglePlayerMatrix(i, anchor)
			// Symmetrize on the line's support only.
			sym := linalg.NewDense(size, size)
			for x := 0; x < size; x++ {
				for y := 0; y < size; y++ {
					if v := m.At(x, y); v != 0 {
						sym.Set(x, y, sqrtPi[x]*v/sqrtPi[y])
					}
				}
			}
			for x := 0; x < size; x++ {
				for y := x + 1; y < size; y++ {
					avg := (sym.At(x, y) + sym.At(y, x)) / 2
					sym.Set(x, y, avg)
					sym.Set(y, x, avg)
				}
			}
			es, err := linalg.SymEigen(sym)
			if err != nil {
				return err
			}
			if es.Values[0] < -tol {
				return errors.New("logit: single-player matrix has a negative eigenvalue")
			}
		}
	}
	return nil
}

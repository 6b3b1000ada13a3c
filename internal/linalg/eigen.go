package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenSym holds the spectral decomposition of a symmetric matrix:
// A = V * diag(Values) * V^T with orthonormal columns in V.
// Values are sorted in ascending order; column k of Vectors is the
// eigenvector for Values[k].
type EigenSym struct {
	Values  []float64
	Vectors *Dense // Vectors.At(i, k) = component i of eigenvector k
}

// SymEigen computes the full spectral decomposition of a symmetric matrix
// using Householder tridiagonalization followed by implicit-shift QL
// iteration. The input is not modified. An error is returned if the matrix
// is not square or the QL iteration fails to converge (which, for symmetric
// input, indicates NaN/Inf entries).
func SymEigen(a *Dense) (*EigenSym, error) {
	return SymEigenInPlace(a.Clone())
}

// SymEigenInPlace is SymEigen for a matrix the caller no longer needs: z
// accumulates the orthogonal transformation and becomes the returned
// Vectors, so no n×n copy is made. z's contents are undefined on error.
func SymEigenInPlace(z *Dense) (*EigenSym, error) {
	if z.Rows != z.Cols {
		return nil, errors.New("linalg: SymEigen of non-square matrix")
	}
	n := z.Rows
	for _, v := range z.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("linalg: SymEigen of matrix with NaN/Inf")
		}
	}
	d := make([]float64, n) // diagonal
	e := make([]float64, n) // off-diagonal
	tred2(z, d, e)
	if err := tql2(z, d, e); err != nil {
		return nil, err
	}
	// Sort ascending by eigenvalue, permuting z's eigenvector columns in
	// place one row at a time, so z itself becomes Vectors.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	es := &EigenSym{Values: make([]float64, n), Vectors: z}
	for k, src := range idx {
		es.Values[k] = d[src]
	}
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		row := z.Row(i)
		copy(tmp, row)
		for k, src := range idx {
			row[k] = tmp[src]
		}
	}
	return es, nil
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form by
// Householder similarity transformations, accumulating the transformation in
// z. On return d holds the diagonal and e the subdiagonal (e[0] = 0, e[i]
// couples d[i-1] and d[i]). This follows the classical EISPACK/JAMA TRED2
// routine.
func tred2(z *Dense, d, e []float64) {
	n := z.Rows
	for j := 0; j < n; j++ {
		d[j] = z.At(n-1, j)
	}
	// Householder reduction to tridiagonal form.
	for i := n - 1; i > 0; i-- {
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z.At(i-1, j)
				z.Set(i, j, 0)
				z.Set(j, i, 0)
			}
		} else {
			// Generate the Householder vector in d[0..i-1].
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply the similarity transformation to the remaining rows.
			for j := 0; j < i; j++ {
				f = d[j]
				z.Set(j, i, f)
				g = e[j] + z.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += z.At(k, j) * d[k]
					e[k] += z.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					z.Set(k, j, z.At(k, j)-f*e[k]-g*d[k])
				}
				d[j] = z.At(i-1, j)
				z.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate the transformations: the Householder vector for step i+1 is
	// stored in column i+1, rows 0..i; d[i+1] holds its h.
	for i := 0; i < n-1; i++ {
		z.Set(n-1, i, z.At(i, i))
		z.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = z.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += z.At(k, i+1) * z.At(k, j)
				}
				for k := 0; k <= i; k++ {
					z.Set(k, j, z.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			z.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z.At(n-1, j)
		z.Set(n-1, j, 0)
	}
	z.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 computes the eigensystem of a symmetric tridiagonal matrix by the QL
// method with implicit shifts. d holds the diagonal, e the subdiagonal in
// e[1..n-1] (e[0] unused); z the accumulated transformation from tred2 (or
// the identity to get only eigenvalues of a raw tridiagonal matrix). On
// return d holds eigenvalues (unordered) and z's columns the eigenvectors.
// This is the classical EISPACK TQL2 routine.
func tql2(z *Dense, d, e []float64) error {
	n := z.Rows
	if n == 1 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	const eps = 2.220446049250313e-16 // 2^-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element to split at.
		if t := math.Abs(d[l]) + math.Abs(e[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		// If m == l, d[l] is already an eigenvalue (up to the running shift).
		if m > l {
			for iter := 1; ; iter++ {
				if iter > 60 {
					return errors.New("linalg: QL iteration did not converge")
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate the rotation into the eigenvector columns.
					for k := 0; k < n; k++ {
						h = z.At(k, i+1)
						z.Set(k, i+1, s*z.At(k, i)+c*h)
						z.Set(k, i, c*z.At(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// JacobiEigen computes the spectral decomposition of a symmetric matrix by
// cyclic Jacobi rotations. O(n^3) per sweep with typically < 15 sweeps; it
// is slower than SymEigen but has very predictable accuracy and serves as a
// cross-check in tests. Values are sorted ascending.
func JacobiEigen(a *Dense, maxSweeps int) (*EigenSym, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: JacobiEigen of non-square matrix")
	}
	n := a.Rows
	m := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation J(p, q, θ) on both sides.
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = m.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	es := &EigenSym{Values: make([]float64, n), Vectors: NewDense(n, n)}
	for k, src := range idx {
		es.Values[k] = d[src]
		for i := 0; i < n; i++ {
			es.Vectors.Set(i, k, v.At(i, src))
		}
	}
	return es, nil
}

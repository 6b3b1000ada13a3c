// Package markov implements finite Markov-chain analysis: stochasticity and
// reversibility checks, stationary distributions (direct solve and power
// iteration), total-variation distance, the edge stationary measure Q and
// the bottleneck ratio of the paper's Theorem 2.7.
package markov

import (
	"errors"
	"fmt"
	"math"

	"logitdyn/internal/linalg"
)

// CheckStochastic verifies that every row of P is a probability vector
// within tol (non-negative entries, rows summing to 1).
func CheckStochastic(p *linalg.Dense, tol float64) error {
	if p.Rows != p.Cols {
		return errors.New("markov: transition matrix must be square")
	}
	for i := 0; i < p.Rows; i++ {
		sum := 0.0
		for _, v := range p.Row(i) {
			if v < -tol {
				return fmt.Errorf("markov: negative entry %g in row %d", v, i)
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("markov: row %d sums to %g", i, sum)
		}
	}
	return nil
}

// StationaryDirect computes the stationary distribution of an ergodic chain
// by solving (P^T − I)π = 0 with the normalization Σπ = 1 via LU.
func StationaryDirect(p *linalg.Dense) ([]float64, error) {
	if err := CheckStochastic(p, 1e-9); err != nil {
		return nil, err
	}
	sys := p.T()
	for i := 0; i < sys.Rows; i++ {
		sys.Set(i, i, sys.At(i, i)-1)
	}
	pi, err := linalg.SolveNullVector(sys)
	if err != nil {
		return nil, err
	}
	// Clamp floating-point negatives and renormalize.
	for i, v := range pi {
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("markov: stationary solve produced %g at state %d", v, i)
			}
			pi[i] = 0
		}
	}
	s := linalg.Sum(pi)
	if s <= 0 {
		return nil, errors.New("markov: degenerate stationary solve")
	}
	linalg.Scale(1/s, pi)
	return pi, nil
}

// StationaryPower computes the stationary distribution by repeated
// right-multiplication μ ← μP until successive iterates differ by less than
// tol in total variation, or maxIter steps elapse. It is the cross-check for
// StationaryDirect on the dense backend.
func StationaryPower(p *linalg.Dense, tol float64, maxIter int) ([]float64, error) {
	if err := CheckStochastic(p, 1e-9); err != nil {
		return nil, err
	}
	return StationaryPowerOp(p, tol, maxIter)
}

// StationaryPowerOp runs the same power iteration against any transition
// operator — dense, CSR or the matrix-free logit operator — using only
// MatVecTrans (μ ← μP). The caller is responsible for the operator being
// row-stochastic.
func StationaryPowerOp(p linalg.Operator, tol float64, maxIter int) ([]float64, error) {
	n, cols := p.Dims()
	if n != cols {
		return nil, errors.New("markov: StationaryPowerOp needs a square operator")
	}
	mu := make([]float64, n)
	next := make([]float64, n)
	for i := range mu {
		mu[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		p.MatVecTrans(next, mu)
		if TVDistance(mu, next) < tol {
			return next, nil
		}
		mu, next = next, mu
	}
	return nil, fmt.Errorf("markov: power iteration did not converge in %d steps", maxIter)
}

// TVDistance returns the total variation distance ½·Σ|p_i − q_i|.
func TVDistance(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("markov: TVDistance length mismatch")
	}
	s := 0.0
	for i, v := range p {
		s += math.Abs(v - q[i])
	}
	return s / 2
}

// CheckReversible verifies the detailed-balance condition
// π(x)P(x,y) = π(y)P(y,x) for all pairs, within tol.
func CheckReversible(p *linalg.Dense, pi []float64, tol float64) error {
	if p.Rows != len(pi) {
		return errors.New("markov: reversibility check size mismatch")
	}
	for x := 0; x < p.Rows; x++ {
		for y := x + 1; y < p.Cols; y++ {
			fwd := pi[x] * p.At(x, y)
			bwd := pi[y] * p.At(y, x)
			if math.Abs(fwd-bwd) > tol {
				return fmt.Errorf("markov: detailed balance violated at (%d,%d): %g vs %g", x, y, fwd, bwd)
			}
		}
	}
	return nil
}

// EdgeMeasure returns Q(x,y) = π(x)·P(x,y), the edge stationary measure used
// by the bottleneck ratio and the path-comparison machinery.
func EdgeMeasure(p *linalg.Dense, pi []float64, x, y int) float64 {
	return pi[x] * p.At(x, y)
}

// BottleneckRatio computes B(R) = Q(R, R̄)/π(R) for the state set R given as
// a membership mask. π(R) must be positive.
func BottleneckRatio(p *linalg.Dense, pi []float64, inR []bool) (float64, error) {
	if p.Rows != len(pi) || len(inR) != len(pi) {
		return 0, errors.New("markov: BottleneckRatio size mismatch")
	}
	piR := 0.0
	for x, in := range inR {
		if in {
			piR += pi[x]
		}
	}
	if piR <= 0 {
		return 0, errors.New("markov: BottleneckRatio over an empty (or null) set")
	}
	flow := 0.0
	for x, in := range inR {
		if !in {
			continue
		}
		row := p.Row(x)
		for y, pxy := range row {
			if !inR[y] && pxy > 0 {
				flow += pi[x] * pxy
			}
		}
	}
	return flow / piR, nil
}

// BottleneckLowerBound returns the Theorem 2.7 mixing-time lower bound
// t_mix(ε) >= (1−2ε)/(2·B(R)) for a set R with π(R) <= 1/2.
func BottleneckLowerBound(bR, eps float64) float64 {
	if bR <= 0 {
		return math.Inf(1)
	}
	return (1 - 2*eps) / (2 * bR)
}

// Evolve computes dst = src·P^t for a dense chain, reusing dst. Intended
// for exact distribution evolution at small t; for large t use the spectral
// machinery instead.
func Evolve(p *linalg.Dense, src []float64, t int) []float64 {
	cur := linalg.Clone(src)
	next := make([]float64, len(src))
	for s := 0; s < t; s++ {
		p.VecMul(next, cur)
		cur, next = next, cur
	}
	return cur
}

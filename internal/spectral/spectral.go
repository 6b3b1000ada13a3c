// Package spectral implements exact spectral analysis of reversible finite
// Markov chains: the symmetrization D^{1/2}·P·D^{−1/2}, the full spectrum,
// relaxation time, and — crucially for this reproduction — the exact
// worst-case total-variation distance d(t) at arbitrary t computed from the
// eigendecomposition, so that mixing times of order e^{βΔΦ} are measurable
// without running e^{βΔΦ} chain steps.
//
// For a reversible chain with stationary distribution π, the matrix
// A = D^{1/2} P D^{−1/2} (D = diag π) is symmetric with the same spectrum as
// P, and
//
//	P^t(x, y) − π(y) = sqrt(π(y)/π(x)) · Σ_{k>=2} λ_k^t ψ_k(x) ψ_k(y)
//
// where ψ_k are A's orthonormal eigenvectors. Eigenvalues with negligible
// |λ_k|^t are pruned, so evaluations at large t touch only the handful of
// slow modes.
//
// One kernel evaluates every d(t) sum. The retained modes form contiguous
// column runs (slow positive modes at the front of the spectrum, slow
// negative ones at the back), read straight from the rows of the
// eigenvector matrix; starts are evaluated four at a time with independent
// accumulators that share each row load; and MixingTime's search asks only
// whether d(t) <= ε, so each probe stops at the first start whose distance
// exceeds ε. That early exit is exact: a floating-point sum of
// non-negative terms never decreases as terms are added. Every per-(x, y)
// operation keeps one fixed order, so d(t) is bit-identical for every
// worker count.
package spectral

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
)

// Decomposition is the spectral decomposition of a reversible chain.
type Decomposition struct {
	// Values are the eigenvalues of P sorted in non-increasing order:
	// Values[0] = λ1 = 1.
	Values []float64
	// Psi holds the orthonormal eigenvectors of the symmetrized matrix as
	// columns, in the same order as Values.
	Psi *linalg.Dense
	// Pi is the stationary distribution.
	Pi []float64
	// sqrtPi caches sqrt(π).
	sqrtPi []float64
	// par is the worker budget for the d(t) evaluation sweep; the zero
	// value selects GOMAXPROCS. It never changes the computed distance —
	// the per-start worst is an exact max-merge.
	par linalg.ParallelConfig
}

// WithParallel sets the worker budget used by Distance evaluations (and
// everything built on them, like MixingTime) and returns d. Serving layers
// pass their token-pool budget here so the dense exact route cannot fan
// out past it.
func (d *Decomposition) WithParallel(par linalg.ParallelConfig) *Decomposition {
	d.par = par
	return d
}

// Decompose symmetrizes the reversible chain (P, π) and computes its full
// spectrum. It verifies stochasticity, reversibility and that the computed
// top eigenvalue is 1 within tolerance.
func Decompose(p *linalg.Dense, pi []float64) (*Decomposition, error) {
	if err := markov.CheckStochastic(p, 1e-9); err != nil {
		return nil, err
	}
	if err := markov.CheckReversible(p, pi, 1e-9); err != nil {
		return nil, err
	}
	n := p.Rows
	if len(pi) != n {
		return nil, errors.New("spectral: π length mismatch")
	}
	sqrtPi := make([]float64, n)
	for i, v := range pi {
		if v <= 0 {
			return nil, fmt.Errorf("spectral: π(%d) = %g must be positive", i, v)
		}
		sqrtPi[i] = math.Sqrt(v)
	}
	// A[x][y] = sqrt(π(x)) · P(x,y) / sqrt(π(y)); symmetrize explicitly to
	// wash out roundoff before the eigensolver.
	a := linalg.NewDense(n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			a.Set(x, y, sqrtPi[x]*p.At(x, y)/sqrtPi[y])
		}
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			m := (a.At(x, y) + a.At(y, x)) / 2
			a.Set(x, y, m)
			a.Set(y, x, m)
		}
	}
	es, err := linalg.SymEigenInPlace(a)
	if err != nil {
		return nil, err
	}
	// a now holds the eigenvectors, sorted ascending; flip to the chain
	// convention λ1 >= λ2 >= … by reversing the values and every row.
	vals := es.Values
	slices.Reverse(vals)
	psi := es.Vectors
	for i := 0; i < n; i++ {
		slices.Reverse(psi.Row(i))
	}
	if math.Abs(vals[0]-1) > 1e-8 {
		return nil, fmt.Errorf("spectral: top eigenvalue %g, want 1", vals[0])
	}
	vals[0] = 1
	return &Decomposition{Values: vals, Psi: psi, Pi: pi, sqrtPi: sqrtPi}, nil
}

// LambdaStar returns λ* = max(|λ2|, |λ_min|), the largest absolute
// eigenvalue below the top.
func (d *Decomposition) LambdaStar() float64 {
	n := len(d.Values)
	if n == 1 {
		return 0
	}
	l2 := math.Abs(d.Values[1])
	lMin := math.Abs(d.Values[n-1])
	if lMin > l2 {
		return lMin
	}
	return l2
}

// SpectralGap returns 1 − λ*.
func (d *Decomposition) SpectralGap() float64 { return 1 - d.LambdaStar() }

// RelaxationTime returns t_rel = 1/(1 − λ*). Infinite if λ* = 1 within
// floating point.
func (d *Decomposition) RelaxationTime() float64 {
	gap := d.SpectralGap()
	if gap <= 0 {
		return math.Inf(1)
	}
	return 1 / gap
}

// MinEigenvalue returns λ_|S|, the smallest eigenvalue. Theorem 3.1 proves
// it is non-negative for logit dynamics of potential games.
func (d *Decomposition) MinEigenvalue() float64 { return d.Values[len(d.Values)-1] }

// Distance returns d(t) = max_x ||P^t(x,·) − π||_TV computed exactly from
// the decomposition. Eigenvalues whose |λ|^t cannot contribute more than
// ~1e-15 to any entry are pruned, so large t is cheap. t must be >= 0.
//
// Its kernel, shared with DistanceFrom and MixingTime, reads the retained
// modes as contiguous column runs of Psi's rows and evaluates four starts
// per pass, sharing each Ψ(y, ·) load. Every per-(x, y) operation keeps
// one order — λ_k^t·Ψ(x,k)/√π(x), then Σ_k in increasing k, then
// Σ_y |dev|·√π(y) — so the result is bit-identical for every worker count.
// Distance runs the kernel with no limit; MixingTime's probes stop at the
// first start whose distance exceeds ε + TVTol.
func (d *Decomposition) Distance(t int64) float64 {
	return d.worstTV(t, 0, len(d.Values), math.Inf(1))
}

// startBlock is how many starts one kernel pass evaluates together.
const startBlock = 4

// worstTV returns max ||P^t(x,·) − π||_TV over the starts x in [lo, hi).
// Once any start's distance exceeds limit the sweep stops, across workers,
// and returns a value above limit: sums of non-negative terms never
// decrease as terms are added, so d(t) <= limit holds exactly when the
// result is <= limit. With limit = +Inf it is the exact maximum.
func (d *Decomposition) worstTV(t int64, lo, hi int, limit float64) float64 {
	if t < 0 {
		panic("spectral: negative time")
	}
	n := len(d.Values)
	// λ_k^t at the retained modes, and those modes as half-open column
	// runs [runs[2i], runs[2i+1]) in increasing k.
	lt := make([]float64, n)
	var runs []int
	for k := 1; k < n; k++ {
		v := powInt(d.Values[k], t)
		if math.Abs(v) <= 1e-17 {
			continue
		}
		lt[k] = v
		if m := len(runs); m > 0 && runs[m-1] == k {
			runs[m-1] = k + 1
		} else {
			runs = append(runs, k, k+1)
		}
	}
	if len(runs) == 0 {
		return 0
	}
	var stop atomic.Bool
	var mu sync.Mutex
	worst := 0.0
	d.par.For(hi-lo, func(a, b int) {
		coef := make([]float64, startBlock*n)
		local := 0.0
		for x := lo + a; x < lo+b && !stop.Load(); x += startBlock {
			m := min(startBlock, lo+b-x)
			sums := d.tvBlock(x, m, lt, runs, coef)
			for _, s := range sums[:m] {
				if tv := s / 2; tv > local {
					local = tv
				}
			}
			if local > limit {
				stop.Store(true)
			}
		}
		mu.Lock()
		if local > worst {
			worst = local
		}
		mu.Unlock()
	})
	return worst
}

// tvBlock returns 2·||P^t(x,·) − π||_TV for the m <= startBlock starts
// x0, …, x0+m−1 (unused lanes read zero coefficients and are discarded).
// coef is the caller's startBlock·n buffer.
func (d *Decomposition) tvBlock(x0, m int, lt []float64, runs []int, coef []float64) [startBlock]float64 {
	n := len(d.Values)
	for i := 0; i < startBlock; i++ {
		c := coef[i*n : (i+1)*n]
		if i >= m {
			clear(c)
			continue
		}
		x := x0 + i
		psiX := d.Psi.Row(x)
		for r := 0; r < len(runs); r += 2 {
			for k := runs[r]; k < runs[r+1]; k++ {
				c[k] = lt[k] * psiX[k] / d.sqrtPi[x]
			}
		}
	}
	c0, c1, c2, c3 := coef[:n], coef[n:2*n], coef[2*n:3*n], coef[3*n:4*n]
	var s0, s1, s2, s3 float64
	for y := 0; y < n; y++ {
		row := d.Psi.Row(y)
		var d0, d1, d2, d3 float64
		for r := 0; r < len(runs); r += 2 {
			k0, k1 := runs[r], runs[r+1]
			seg := row[k0:k1]
			a0, a1, a2, a3 := c0[k0:k1], c1[k0:k1], c2[k0:k1], c3[k0:k1]
			a0, a1, a2, a3 = a0[:len(seg)], a1[:len(seg)], a2[:len(seg)], a3[:len(seg)]
			for j, v := range seg {
				d0 += a0[j] * v
				d1 += a1[j] * v
				d2 += a2[j] * v
				d3 += a3[j] * v
			}
		}
		w := d.sqrtPi[y]
		s0 += math.Abs(d0) * w
		s1 += math.Abs(d1) * w
		s2 += math.Abs(d2) * w
		s3 += math.Abs(d3) * w
	}
	return [startBlock]float64{s0, s1, s2, s3}
}

// DistanceFrom returns ||P^t(x,·) − π||_TV for a single starting state.
// It is a one-start call of Distance's kernel, so Distance(t) is exactly
// the largest DistanceFrom(x, t).
func (d *Decomposition) DistanceFrom(x int, t int64) float64 {
	return d.worstTV(t, x, x+1, math.Inf(1))
}

// TVTol is the floating-point slack applied when comparing a computed TV
// distance against the target ε: chains whose d(t) lands exactly on ε (the
// β = 0 random walk does) must not flip on the last bit of roundoff.
// Exported so independent measurement routes can break ties identically.
const TVTol = 1e-12

// MixingTime returns t_mix(ε) = min{t : d(t) <= ε} by exponential bracketing
// followed by binary search; d(t) is non-increasing in t (Levin–Peres,
// Exercise 4.2), so the search is exact. It errors if the mixing time
// exceeds maxT.
func (d *Decomposition) MixingTime(eps float64, maxT int64) (int64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("spectral: ε must be in (0,1), got %g", eps)
	}
	limit := eps + TVTol
	mixed := func(t int64) bool { return d.mixedAt(t, limit) }
	if mixed(0) {
		return 0, nil
	}
	// Bracket.
	lo, hi := int64(0), int64(1)
	for !mixed(hi) {
		lo = hi
		if hi > maxT/2 {
			if !mixed(maxT) {
				return 0, fmt.Errorf("spectral: mixing time exceeds %d", maxT)
			}
			hi = maxT
			break
		}
		hi *= 2
	}
	// Binary search for the first t with d(t) <= eps.
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if mixed(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// mixedAt reports d(t) <= limit through Distance's kernel, stopping at the
// first start whose distance exceeds limit.
func (d *Decomposition) mixedAt(t int64, limit float64) bool {
	return d.worstTV(t, 0, len(d.Values), limit) <= limit
}

// MixingTimeBoundsFromRelaxation returns the Theorem 2.3 sandwich
//
//	(t_rel − 1)·log(1/2ε)  <=  t_mix(ε)  <=  t_rel·log(1/(ε·π_min)).
func (d *Decomposition) MixingTimeBoundsFromRelaxation(eps float64) (lower, upper float64) {
	return MixingTimeSandwich(d.RelaxationTime(), d.Pi, eps)
}

// MixingTimeSandwich is the Theorem 2.3 two-sided envelope computed from a
// relaxation time and stationary distribution alone — the quantity the
// Lanczos route reports when the chain is too large for the exact d(t).
func MixingTimeSandwich(trel float64, pi []float64, eps float64) (lower, upper float64) {
	piMin := math.Inf(1)
	for _, v := range pi {
		if v < piMin {
			piMin = v
		}
	}
	lower = (trel - 1) * math.Log(1/(2*eps))
	if lower < 0 {
		lower = 0
	}
	upper = trel * math.Log(1/(eps*piMin))
	return lower, upper
}

// powInt computes λ^t for integer t >= 0 with sign handling and without
// overflow for |λ| <= 1.
func powInt(lambda float64, t int64) float64 {
	if t == 0 {
		return 1
	}
	a := math.Abs(lambda)
	if a == 0 {
		return 0
	}
	mag := math.Exp(float64(t) * math.Log(a))
	if lambda < 0 && t%2 == 1 {
		return -mag
	}
	return mag
}

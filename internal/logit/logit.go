// Package logit implements the paper's central object: the logit dynamics
// with inverse noise β for a finite strategic game (Blume 1993; the paper's
// Section 2).
//
// At each step a player i is chosen uniformly at random and updates her
// strategy to y with probability
//
//	σ_i(y | x) = exp(β·u_i(y, x_-i)) / Σ_z exp(β·u_i(z, x_-i))     (Eq. 2)
//
// which defines the ergodic Markov chain Mβ(G) of Eq. (3). For potential
// games the chain is reversible with the Gibbs stationary measure
// π(x) ∝ exp(−β·Φ(x)) (Eq. 4, in the sign convention of the paper's proofs).
//
// All exponentials are computed in shifted form (subtracting the row maximum
// utility, or the minimum potential) so that arbitrarily large β never
// overflows.
//
// Trajectories run through a Walker. A walker built for walks totalling at
// least |S|·n steps tabulates σ_i(·|x) for every profile and player once —
// 8·|S|·Σᵢ|Sᵢ| bytes, never more σ evaluations than the walks would make —
// and steps read their rows from the table; shorter walks evaluate σ on the
// fly. Both draw the same RNG values and visit the same profiles.
package logit

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

// Dynamics is the logit dynamics Mβ(G) for a fixed game and inverse noise.
type Dynamics struct {
	g     game.Game
	beta  float64
	space *game.Space
}

// New validates β >= 0 and returns the dynamics.
func New(g game.Game, beta float64) (*Dynamics, error) {
	if g == nil {
		return nil, errors.New("logit: nil game")
	}
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("logit: inverse noise must be finite and >= 0, got %g", beta)
	}
	return &Dynamics{g: g, beta: beta, space: game.SpaceOf(g)}, nil
}

// Game returns the underlying game.
func (d *Dynamics) Game() game.Game { return d.g }

// Beta returns the inverse noise β.
func (d *Dynamics) Beta() float64 { return d.beta }

// Space returns the profile space of the game.
func (d *Dynamics) Space() *game.Space { return d.space }

// UpdateProbs returns σ_i(· | x), the logit update distribution of player i
// at profile x (Eq. 2), reusing dst when it has the right length. x is not
// modified.
func (d *Dynamics) UpdateProbs(i int, x []int, dst []float64) []float64 {
	return d.updateProbsAt(i, append([]int(nil), x...), dst)
}

// updateProbsAt is the allocation-free core of UpdateProbs: it mutates
// y[i] while sweeping player i's strategies and restores it before
// returning, so hot paths (row generation) can pass their own scratch
// profile instead of copying per call.
func (d *Dynamics) updateProbsAt(i int, y []int, dst []float64) []float64 {
	m := d.g.Strategies(i)
	if len(dst) != m {
		dst = make([]float64, m)
	}
	orig := y[i]
	maxU := math.Inf(-1)
	for v := 0; v < m; v++ {
		y[i] = v
		u := d.g.Utility(i, y)
		dst[v] = u
		if u > maxU {
			maxU = u
		}
	}
	y[i] = orig
	total := 0.0
	for v := 0; v < m; v++ {
		dst[v] = math.Exp(d.beta * (dst[v] - maxU))
		total += dst[v]
	}
	for v := 0; v < m; v++ {
		dst[v] /= total
	}
	return dst
}

// RowGen generates sparse transition rows of the Eq. (3) chain one state at
// a time, owning the per-row scratch. It is the single source of transition
// rows for every backend: TransitionSparse tabulates rows through it and the
// matrix-free operator calls it on the fly. A RowGen is not safe for
// concurrent use; give each goroutine its own.
type RowGen struct {
	d *Dynamics
	x []int
	// probs holds one reusable σ_i buffer per player, so heterogeneous
	// strategy counts never force a reallocation inside the row loop.
	probs [][]float64
}

// NewRowGen returns a row generator for the dynamics.
func (d *Dynamics) NewRowGen() *RowGen {
	n := d.space.Players()
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, d.g.Strategies(i))
	}
	return &RowGen{d: d, x: make([]int, n), probs: probs}
}

// AppendRow appends the sparse transition row of the profile with the given
// index to row and returns it: one entry per improving (player, strategy)
// deviation plus the diagonal self-loop accumulating Σ_i σ_i(x_i | x)/n.
// It performs no allocations beyond growing row.
func (g *RowGen) AppendRow(idx int, row []markov.Entry) []markov.Entry {
	d := g.d
	n := d.space.Players()
	d.space.Decode(idx, g.x)
	self := 0.0
	for i := 0; i < n; i++ {
		probs := d.updateProbsAt(i, g.x, g.probs[i])
		for v, p := range probs {
			if v == g.x[i] {
				self += p
				continue
			}
			if p == 0 {
				continue
			}
			row = append(row, markov.Entry{To: d.space.WithDigit(idx, i, v), P: p / float64(n)})
		}
	}
	return append(row, markov.Entry{To: idx, P: self / float64(n)})
}

// TransitionSparse builds the Eq. (3) transition matrix in sparse row form:
// each state has one entry per (player, strategy) pair, with the diagonal
// accumulating the self-loop mass Σ_i σ_i(x_i | x)/n. This is the primary
// representation; the dense and CSR forms are derived from it.
func (d *Dynamics) TransitionSparse() *markov.Sparse {
	return d.TransitionSparsePar(linalg.ParallelConfig{})
}

// TransitionSparsePar is TransitionSparse under an explicit worker budget,
// so serving layers can bound the build's fan-out by their token pool. The
// budget never changes the rows, only how many goroutines fill them.
func (d *Dynamics) TransitionSparsePar(par linalg.ParallelConfig) *markov.Sparse {
	size := d.space.Size()
	s := markov.NewSparse(size)
	par.For(size, func(lo, hi int) {
		gen := d.NewRowGen()
		for idx := lo; idx < hi; idx++ {
			s.Rows[idx] = gen.AppendRow(idx, make([]markov.Entry, 0, 1+d.space.Players()))
		}
	})
	return s
}

// TransitionCSRPar builds the transition matrix in compressed-sparse-row
// form, the representation the sparse analysis backend iterates, using the
// given worker budget for both construction and the returned matrix's
// mat-vecs. Rows are written directly into width-padded CSR arrays in
// parallel (every row has at most W = 1 + Σᵢ(|Sᵢ|−1) entries), so no
// intermediate row-list — with its one slice header per state — is ever
// materialized; a compaction pass runs only when some update probability
// underflowed to zero. The CSR arrays check out of par.Arena (nil = fresh):
// the returned matrix then references arena memory, so it is owned by the
// analysis that owns the arena and must not outlive it — the operator never
// escapes into a report, which is what makes this safe.
func (d *Dynamics) TransitionCSRPar(par linalg.ParallelConfig) *linalg.CSR {
	a := par.Arena
	size := d.space.Size()
	w := 1
	for i := 0; i < d.space.Players(); i++ {
		w += d.space.Strategies(i) - 1
	}
	col := a.Ints(size * w)
	val := a.F64(size * w)
	counts := a.Ints(size)
	par.For(size, func(lo, hi int) {
		gen := d.NewRowGen()
		row := make([]markov.Entry, 0, w)
		for idx := lo; idx < hi; idx++ {
			row = gen.AppendRow(idx, row[:0])
			base := idx * w
			for j, e := range row {
				col[base+j] = e.To
				val[base+j] = e.P
			}
			counts[idx] = len(row)
		}
	})
	rowPtr := a.Ints(size + 1)
	for i, c := range counts {
		rowPtr[i+1] = rowPtr[i] + c
	}
	if nnz := rowPtr[size]; nnz < size*w {
		// Some rows came up short (zero-probability entries were skipped);
		// compact in place — reads always stay at or ahead of writes.
		for i, c := range counts {
			copy(col[rowPtr[i]:rowPtr[i+1]], col[i*w:i*w+c])
			copy(val[rowPtr[i]:rowPtr[i+1]], val[i*w:i*w+c])
		}
		col = col[:nnz]
		val = val[:nnz]
	}
	return linalg.NewCSR(size, size, rowPtr, col, val).WithParallel(par)
}

// TransitionDense materializes the Eq. (3) transition matrix densely — a
// view over the sparse-first construction, for the exact eigendecomposition
// path.
func (d *Dynamics) TransitionDense() *linalg.Dense {
	return d.TransitionSparse().Dense()
}

// TransitionDensePar is TransitionDense under an explicit worker budget
// (threaded through the sparse-first construction).
func (d *Dynamics) TransitionDensePar(par linalg.ParallelConfig) *linalg.Dense {
	return d.TransitionSparsePar(par).Dense()
}

// OperatorPar returns the transition matrix as a linalg.Operator in the
// requested concrete backend, carrying the given worker budget (auto must
// be resolved by the caller first, since the dense threshold is a policy of
// the analysis layer). The budget tunes how many workers the operator's
// mat-vecs use; it never changes their results. The sparse backend's CSR
// arrays check out of par.Arena (see TransitionCSRPar); the dense and
// matrix-free backends carry no shape-sized construction arrays.
func (d *Dynamics) OperatorPar(b Backend, par linalg.ParallelConfig) (linalg.Operator, error) {
	switch b {
	case BackendDense:
		return d.TransitionDense().WithParallel(par), nil
	case BackendSparse:
		return d.TransitionCSRPar(par), nil
	case BackendMatFree:
		return d.MatFree().WithParallel(par), nil
	}
	return nil, fmt.Errorf("logit: no concrete operator for backend %q", b)
}

// Gibbs returns the Gibbs measure π(x) ∝ exp(−β·Φ(x)) (Eq. 4) when the game
// exposes an exact potential, computed with the minimum-potential shift so
// large β cannot overflow. It errors for games without a potential. It runs
// serially; callers holding a worker budget use GibbsPar.
func (d *Dynamics) Gibbs() ([]float64, error) {
	return d.GibbsPar(linalg.Serial)
}

// GibbsPar is Gibbs under an explicit worker budget. Potential tabulation
// and exponentiation are element-wise parallel; the minimum is an exact
// (order-independent) reduction and the normalizing sum accumulates over
// fixed blocks, so the measure is bit-identical for every worker count.
// The potential table checks out of par.Arena (nil = fresh); the returned
// measure itself is always freshly allocated: it escapes into reports and
// caches, so it must survive the arena's Reset.
func (d *Dynamics) GibbsPar(par linalg.ParallelConfig) ([]float64, error) {
	p, ok := game.AsPotential(d.g)
	if !ok {
		return nil, errors.New("logit: Gibbs measure requires a potential game")
	}
	size := d.space.Size()
	phi := par.Arena.F64(size)
	var mu sync.Mutex
	minPhi := math.Inf(1)
	par.For(size, func(lo, hi int) {
		x := make([]int, d.space.Players())
		local := math.Inf(1)
		for idx := lo; idx < hi; idx++ {
			d.space.Decode(idx, x)
			phi[idx] = p.Phi(x)
			if phi[idx] < local {
				local = phi[idx]
			}
		}
		mu.Lock()
		if local < minPhi {
			minPhi = local
		}
		mu.Unlock()
	})
	// One fused sweep: BlockSum visits every block exactly once, so the
	// exponentiation fills π while the block partial accumulates.
	pi := make([]float64, size)
	total := par.BlockSum(size, func(lo, hi int) float64 {
		s := 0.0
		for idx := lo; idx < hi; idx++ {
			v := math.Exp(-d.beta * (phi[idx] - minPhi))
			pi[idx] = v
			s += v
		}
		return s
	})
	linalg.Scale(1/total, pi)
	return pi, nil
}

// Stationary returns the stationary distribution: the Gibbs measure for
// potential games, or the direct null-space solve of the transition matrix
// otherwise (which requires a materializable profile space).
func (d *Dynamics) Stationary() ([]float64, error) {
	if pi, err := d.Gibbs(); err == nil {
		return pi, nil
	}
	return markov.StationaryDirect(d.TransitionDense())
}

// StationaryPar is Stationary under an explicit worker budget for the
// Gibbs sweep and the dense materialization of the fallback solve. As
// everywhere in the parallel layer, the budget never changes the result.
func (d *Dynamics) StationaryPar(par linalg.ParallelConfig) ([]float64, error) {
	if pi, err := d.GibbsPar(par); err == nil {
		return pi, nil
	}
	return markov.StationaryDirect(d.TransitionDensePar(par))
}

// Step performs one logit update in place: picks a player uniformly and
// resamples her strategy from σ_i(· | x). It returns the updated player.
// Trajectories use a Walker instead, which consumes the RNG stream exactly
// as Step does without the per-step allocations.
func (d *Dynamics) Step(x []int, r *rng.RNG) int {
	i := r.Intn(d.space.Players())
	probs := d.UpdateProbs(i, x, nil)
	x[i] = r.Categorical(probs)
	return i
}

// StepIndexed performs one logit update on a profile index.
func (d *Dynamics) StepIndexed(idx int, r *rng.RNG) int {
	x := d.space.Decode(idx, nil)
	d.Step(x, r)
	return d.space.Encode(x)
}

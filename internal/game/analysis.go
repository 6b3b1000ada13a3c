package game

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"logitdyn/internal/linalg"
)

// AsPotential reports whether g exposes a usable exact potential. It
// unwraps the TableGame case where the Potential interface is satisfied
// structurally but no table is installed.
func AsPotential(g Game) (Potential, bool) {
	p, ok := g.(Potential)
	if !ok {
		return nil, false
	}
	if t, isTable := g.(*TableGame); isTable && !t.HasPhi() {
		return nil, false
	}
	return p, true
}

// BestResponses returns the set of player i's best responses to the profile
// x (the strategies maximizing u_i(·, x_-i)), with ties included up to tol.
func BestResponses(g Game, i int, x []int, tol float64) []int {
	y := append([]int(nil), x...)
	best := math.Inf(-1)
	for v := 0; v < g.Strategies(i); v++ {
		y[i] = v
		if u := g.Utility(i, y); u > best {
			best = u
		}
	}
	var out []int
	for v := 0; v < g.Strategies(i); v++ {
		y[i] = v
		if g.Utility(i, y) >= best-tol {
			out = append(out, v)
		}
	}
	return out
}

// IsPureNash reports whether x is a pure Nash equilibrium: no player can
// improve by more than tol with a unilateral deviation. x is mutated while
// the deviations are swept and restored before every return — callers may
// not read x concurrently, but they get it back unchanged. (This predicate
// runs once per profile in the equilibrium and welfare sweeps; copying the
// profile per call was the single largest allocation source of a large
// analysis.)
func IsPureNash(g Game, x []int, tol float64) bool {
	for i := 0; i < g.Players(); i++ {
		orig := x[i]
		cur := g.Utility(i, x)
		for v := 0; v < g.Strategies(i); v++ {
			if v == orig {
				continue
			}
			x[i] = v
			if g.Utility(i, x) > cur+tol {
				x[i] = orig
				return false
			}
		}
		x[i] = orig
	}
	return true
}

// isPureNashAt is IsPureNash for the profile x with index idx, reading
// utilities by index: the same comparisons in the same order.
func (t *TableGame) isPureNashAt(x []int, idx int, tol float64) bool {
	for i, u := range t.utils {
		stride := t.space.Stride(i)
		cur := u[idx]
		at := idx - x[i]*stride
		for v := 0; v < t.space.Strategies(i); v++ {
			if v != x[i] && u[at] > cur+tol {
				return false
			}
			at += stride
		}
	}
	return true
}

// PureNashEquilibriaPar enumerates all pure Nash equilibria by profile
// index, in increasing index order, scanning the whole profile space. Each
// chunk collects its equilibria locally, chunk lists sort by starting
// index and concatenate, so the output is the same increasing index list
// for every worker count. A table game is read by profile index.
func PureNashEquilibriaPar(g Game, tol float64, par linalg.ParallelConfig) []int {
	sp := SpaceOf(g)
	t, _ := g.(*TableGame)
	type chunk struct {
		lo   int
		hits []int
	}
	var mu sync.Mutex
	var chunks []chunk
	par.For(sp.Size(), func(lo, hi int) {
		x := make([]int, sp.Players())
		var local []int
		for idx := lo; idx < hi; idx++ {
			sp.Decode(idx, x)
			if t != nil && t.isPureNashAt(x, idx, tol) || t == nil && IsPureNash(g, x, tol) {
				local = append(local, idx)
			}
		}
		mu.Lock()
		chunks = append(chunks, chunk{lo: lo, hits: local})
		mu.Unlock()
	})
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].lo < chunks[b].lo })
	var out []int
	for _, c := range chunks {
		out = append(out, c.hits...)
	}
	return out
}

// IsDominantStrategyPar reports whether strategy s is (weakly) dominant
// for player i: u_i(s, x_-i) >= u_i(s', x_-i) − tol for every s' and every
// profile x of the other players, matching the paper's Section 4
// definition. The opponent-profile scan is sharded over the worker budget.
// The predicate is a pure conjunction, so any chunking returns the same
// boolean; a shared flag lets all chunks stop early once one
// counterexample is found. A table game is read by profile index.
func IsDominantStrategyPar(g Game, i, s int, tol float64, par linalg.ParallelConfig) bool {
	sp := SpaceOf(g)
	var refuted atomic.Bool
	if t, ok := g.(*TableGame); ok {
		u, stride, m := t.utils[i], sp.Stride(i), sp.Strategies(i)
		par.For(sp.Size(), func(lo, hi int) {
			for idx := lo; idx < hi && !refuted.Load(); idx++ {
				if sp.Digit(idx, i) != 0 {
					continue // enumerate each x_-i once, with player i's digit fixed
				}
				us := u[idx+s*stride]
				for v := 0; v < m; v++ {
					if u[idx+v*stride] > us+tol {
						refuted.Store(true)
						return
					}
				}
			}
		})
		return !refuted.Load()
	}
	par.For(sp.Size(), func(lo, hi int) {
		x := make([]int, sp.Players())
		for idx := lo; idx < hi && !refuted.Load(); idx++ {
			sp.Decode(idx, x)
			if x[i] != 0 {
				continue // enumerate each x_-i once, with player i's digit fixed
			}
			x[i] = s
			us := g.Utility(i, x)
			for v := 0; v < g.Strategies(i); v++ {
				x[i] = v
				if g.Utility(i, x) > us+tol {
					refuted.Store(true)
					return
				}
			}
			x[i] = 0
		}
	})
	return !refuted.Load()
}

// DominantProfilePar returns a profile in which every player plays a
// dominant strategy, or ok=false if some player has none. When several
// strategies are dominant for a player the lowest-numbered one is chosen.
// The per-player scans shard over opponent profiles.
func DominantProfilePar(g Game, tol float64, par linalg.ParallelConfig) (profile []int, ok bool) {
	n := g.Players()
	profile = make([]int, n)
	for i := 0; i < n; i++ {
		found := false
		for s := 0; s < g.Strategies(i) && !found; s++ {
			if IsDominantStrategyPar(g, i, s, tol, par) {
				profile[i] = s
				found = true
			}
		}
		if !found {
			return nil, false
		}
	}
	return profile, true
}

// VerifyPotential checks the paper's Eq. (1) on every profile and deviation:
//
//	u_i(a, x_-i) − u_i(b, x_-i) = Φ(b, x_-i) − Φ(a, x_-i)
//
// within tol. It returns a descriptive error at the first violation.
func VerifyPotential(p Potential, tol float64) error {
	sp := SpaceOf(p)
	x := make([]int, sp.Players())
	y := make([]int, sp.Players())
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		phiX := p.Phi(x)
		uX := make([]float64, sp.Players())
		for i := range uX {
			uX[i] = p.Utility(i, x)
		}
		for i := 0; i < sp.Players(); i++ {
			copy(y, x)
			for v := 0; v < sp.Strategies(i); v++ {
				if v == x[i] {
					continue
				}
				y[i] = v
				lhs := uX[i] - p.Utility(i, y)
				rhs := p.Phi(y) - phiX
				if math.Abs(lhs-rhs) > tol {
					return fmt.Errorf(
						"game: potential violated at profile %v, player %d, deviation %d→%d: Δu=%g, −ΔΦ=%g",
						x, i, x[i], v, lhs, rhs)
				}
			}
			y[i] = x[i]
		}
	}
	return nil
}

// ReconstructPotential attempts to build an exact potential for g by
// integrating utility differences over the Hamming graph of the profile
// space (a breadth-first spanning tree fixes the values; every non-tree
// Hamming edge is then checked for consistency). It returns the
// profile-indexed potential with Φ(profile 0) = 0 and ok=true exactly when
// g is an exact potential game within tol.
//
// This doubles as a constructive potential-game test: the paper's classes
// (Sections 3 and 5) are all exact potential games, while generic games are
// not.
func ReconstructPotential(g Game, tol float64) (phi []float64, ok bool) {
	sp := SpaceOf(g)
	size := sp.Size()
	phi = make([]float64, size)
	seen := make([]bool, size)
	seen[0] = true
	queue := []int{0}
	x := make([]int, sp.Players())
	y := make([]int, sp.Players())
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		sp.Decode(idx, x)
		for i := 0; i < sp.Players(); i++ {
			copy(y, x)
			for v := 0; v < sp.Strategies(i); v++ {
				if v == x[i] {
					continue
				}
				y[i] = v
				nIdx := sp.WithDigit(idx, i, v)
				// Eq. (1): Φ(y) = Φ(x) + u_i(x) − u_i(y).
				delta := g.Utility(i, x) - g.Utility(i, y)
				if !seen[nIdx] {
					phi[nIdx] = phi[idx] + delta
					seen[nIdx] = true
					queue = append(queue, nIdx)
				} else if math.Abs(phi[nIdx]-(phi[idx]+delta)) > tol {
					return nil, false
				}
			}
		}
	}
	return phi, true
}

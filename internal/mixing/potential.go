// Package mixing ties the spectral machinery to the paper's theorems: it
// computes the potential statistics the bounds are stated in (the maximum
// global variation ΔΦ, the maximum local variation δΦ, and the minimax climb
// ζ of Section 3.4), evaluates every closed-form bound from Sections 3–5,
// and measures exact mixing times.
package mixing

import (
	"errors"
	"math"
	"sort"
	"sync"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/scratch"
)

// PotentialStats summarizes the structure of a potential function over the
// profile space.
type PotentialStats struct {
	// Phi is the profile-indexed potential.
	Phi []float64
	// PhiMin and PhiMax are the extreme values.
	PhiMin, PhiMax float64
	// DeltaPhi = PhiMax − PhiMin is the maximum global variation (Thm 3.4).
	DeltaPhi float64
	// SmallDeltaPhi is the maximum local variation max{|Φ(x)−Φ(y)|:
	// d(x,y)=1} (Thm 3.6).
	SmallDeltaPhi float64
	// Zeta is the paper's Section 3.4 quantity: the largest over ordered
	// pairs (x, y) with Φ(x) >= Φ(y) of the minimum over Hamming paths from
	// x to y of the maximum climb above Φ(x). Zero for unimodal landscapes;
	// positive when wells are separated by barriers (Thms 3.8/3.9).
	Zeta float64
}

// AnalyzePotentialPar tabulates Φ over the profile space and computes the
// statistics. The profile space must be materializable; a table game's Φ
// is read by profile index. The Φ tabulation and the Hamming-edge scan
// shard over profile ranges.
// Extremal statistics combine with exact (order-independent) min/max, so
// every worker count produces the same values. The Φ table and the ζ
// scan's temporaries check out of par.Arena (nil = fresh), so st.Phi is
// arena memory whenever an arena is set: a caller that lets the table
// outlive the analysis (a small-game report keeps it) must copy it out or
// pass no arena.
func AnalyzePotentialPar(p game.Potential, par linalg.ParallelConfig) (*PotentialStats, error) {
	sp := game.SpaceOf(p)
	size := sp.Size()
	phi := par.Arena.F64(size)
	t, _ := p.(*game.TableGame)
	par.For(size, func(lo, hi int) {
		x := make([]int, sp.Players())
		for idx := lo; idx < hi; idx++ {
			if t != nil {
				phi[idx] = t.PhiIndexed(idx)
			} else {
				sp.Decode(idx, x)
				phi[idx] = p.Phi(x)
			}
		}
	})
	return AnalyzePhiTablePar(sp, phi, par)
}

// AnalyzePhiTablePar computes the statistics from an explicit potential
// table under an explicit worker budget. The ζ scan's size-proportional
// temporaries (merge order, union-find state) check out of par.Arena (nil =
// fresh). The returned stats reference phi, whose ownership stays with the
// caller.
func AnalyzePhiTablePar(sp *game.Space, phi []float64, par linalg.ParallelConfig) (*PotentialStats, error) {
	if len(phi) != sp.Size() {
		return nil, errors.New("mixing: potential table size mismatch")
	}
	st := &PotentialStats{Phi: phi, PhiMin: math.Inf(1), PhiMax: math.Inf(-1)}
	var mu sync.Mutex
	par.For(len(phi), func(lo, hi int) {
		localMin, localMax := math.Inf(1), math.Inf(-1)
		for _, v := range phi[lo:hi] {
			if v < localMin {
				localMin = v
			}
			if v > localMax {
				localMax = v
			}
		}
		mu.Lock()
		if localMin < st.PhiMin {
			st.PhiMin = localMin
		}
		if localMax > st.PhiMax {
			st.PhiMax = localMax
		}
		mu.Unlock()
	})
	st.DeltaPhi = st.PhiMax - st.PhiMin
	st.SmallDeltaPhi = maxLocalVariation(sp, phi, par)
	st.Zeta = zeta(sp, phi, par.Arena)
	return st, nil
}

// maxLocalVariation scans all Hamming edges of the profile space, sharded
// over profiles; the maximum combines exactly, so the worker count never
// changes the answer.
func maxLocalVariation(sp *game.Space, phi []float64, par linalg.ParallelConfig) float64 {
	best := 0.0
	var mu sync.Mutex
	n := sp.Players()
	par.For(len(phi), func(lo, hi int) {
		local := 0.0
		for idx := lo; idx < hi; idx++ {
			for i := 0; i < n; i++ {
				cur := sp.Digit(idx, i)
				for v := cur + 1; v < sp.Strategies(i); v++ {
					j := sp.WithDigit(idx, i, v)
					if d := math.Abs(phi[idx] - phi[j]); d > local {
						local = d
					}
				}
			}
		}
		mu.Lock()
		if local > best {
			best = local
		}
		mu.Unlock()
	})
	return best
}

// zeta computes the Section 3.4 barrier height by Kruskal-style merging:
// process profiles in increasing Φ order; when two connected components of
// the sub-level graph merge at height h, the best new pair is realized by
// the shallower component's minimum, contributing h − max(minA, minB). The
// maximum over all merges is exactly max_{x,y} ζ(x,y). Its four
// size-proportional temporaries check out of the arena (nil = fresh); none
// escapes.
func zeta(sp *game.Space, phi []float64, a *scratch.Arena) float64 {
	size := sp.Size()
	order := a.Ints(size)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return phi[order[a]] < phi[order[b]] })

	parent := a.Ints(size)
	minPhi := a.F64(size)
	active := a.Bools(size)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}

	best := 0.0
	n := sp.Players()
	for _, idx := range order {
		active[idx] = true
		minPhi[idx] = phi[idx]
		h := phi[idx]
		for i := 0; i < n; i++ {
			cur := sp.Digit(idx, i)
			for v := 0; v < sp.Strategies(i); v++ {
				if v == cur {
					continue
				}
				j := sp.WithDigit(idx, i, v)
				if !active[j] {
					continue
				}
				ra, rb := find(idx), find(j)
				if ra == rb {
					continue
				}
				// Merging at height h: the shallower well climbs h − max(min).
				shallower := minPhi[ra]
				if minPhi[rb] > shallower {
					shallower = minPhi[rb]
				}
				if climb := h - shallower; climb > best {
					best = climb
				}
				// Union, keeping the deeper minimum.
				parent[rb] = ra
				if minPhi[rb] < minPhi[ra] {
					minPhi[ra] = minPhi[rb]
				}
			}
		}
	}
	return best
}

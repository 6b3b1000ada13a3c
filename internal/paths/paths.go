// Package paths implements the canonical-path machinery of the paper's
// Section 2.1: M-paths over the Hamming graph of a profile space, the
// congestion ρ(Γ) of a path set (Theorem 2.6, Jerrum–Sinclair), and the
// ordering-indexed path family Γℓ used in the proof of Theorem 5.1, whose
// congestion Lemma 5.4 bounds by 2n²·e^{χ(ℓ)(δ0+δ1)β}.
//
// These are the proof objects themselves, made executable: tests verify
// numerically that 1/(1−λ₂) ≤ ρ(Γ) for every constructed path set and that
// the Lemma 5.4 bound holds on concrete graphical coordination games.
package paths

import (
	"errors"
	"fmt"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

// Edge is a directed chain edge (a transition with positive probability).
type Edge struct {
	From, To int
}

// Path is a sequence of profile indices x0, x1, …, xk where consecutive
// entries differ in exactly one player.
type Path []int

// Validate checks the path is well-formed over the space: non-empty,
// in-range, and Hamming-adjacent steps.
func (p Path) Validate(sp *game.Space) error {
	if len(p) == 0 {
		return errors.New("paths: empty path")
	}
	for i, v := range p {
		if v < 0 || v >= sp.Size() {
			return fmt.Errorf("paths: index %d out of range at position %d", v, i)
		}
		if i > 0 && sp.Hamming(p[i-1], v) != 1 {
			return fmt.Errorf("paths: positions %d and %d are not Hamming-adjacent", i-1, i)
		}
	}
	return nil
}

// Set is a family of paths indexed by (from, to) pairs.
type Set struct {
	sp    *game.Space
	paths map[[2]int]Path
}

// NewSet allocates an empty path set over the space.
func NewSet(sp *game.Space) *Set {
	return &Set{sp: sp, paths: make(map[[2]int]Path)}
}

// Add validates and stores the path from its first to its last entry.
func (s *Set) Add(p Path) error {
	if err := p.Validate(s.sp); err != nil {
		return err
	}
	key := [2]int{p[0], p[len(p)-1]}
	if _, dup := s.paths[key]; dup {
		return fmt.Errorf("paths: duplicate path for pair %v", key)
	}
	s.paths[key] = p
	return nil
}

// Len returns the number of stored paths.
func (s *Set) Len() int { return len(s.paths) }

// Get returns the path for the ordered pair, if present.
func (s *Set) Get(from, to int) (Path, bool) {
	p, ok := s.paths[[2]int{from, to}]
	return p, ok
}

// Congestion computes the Theorem 2.6 congestion of the path set for the
// chain (P, π):
//
//	ρ = max_{e} (1/Q(e)) Σ_{(x,y): e ∈ Γx,y} π(x)·π(y)·|Γx,y|,
//
// where Q(e) = π(from)·P(from, to) and |Γ| is the edge count of the path.
// Edges with Q(e) = 0 that carry a path make the congestion infinite, which
// is reported as an error (the path set is unusable for that chain).
func (s *Set) Congestion(p *linalg.Dense, pi []float64) (float64, error) {
	if p.Rows != s.sp.Size() || len(pi) != s.sp.Size() {
		return 0, errors.New("paths: chain size mismatch")
	}
	load := make(map[Edge]float64)
	for key, path := range s.paths {
		x, y := key[0], key[1]
		w := pi[x] * pi[y] * float64(len(path)-1)
		for i := 1; i < len(path); i++ {
			e := Edge{From: path[i-1], To: path[i]}
			load[e] += w
		}
	}
	rho := 0.0
	for e, l := range load {
		q := pi[e.From] * p.At(e.From, e.To)
		if q <= 0 {
			return 0, fmt.Errorf("paths: path uses zero-probability edge %v", e)
		}
		if r := l / q; r > rho {
			rho = r
		}
	}
	return rho, nil
}

// BitFixing builds the full path set containing, for every ordered pair of
// distinct profiles, the path that fixes disagreeing players one at a time
// in the given player order (the identity order if nil). This is the
// classical canonical-path choice for product spaces; for the clique
// potential of Section 5.2 it realizes the minimal climb ζ.
func BitFixing(sp *game.Space, playerOrder []int) (*Set, error) {
	n := sp.Players()
	if playerOrder == nil {
		playerOrder = make([]int, n)
		for i := range playerOrder {
			playerOrder[i] = i
		}
	}
	if len(playerOrder) != n {
		return nil, errors.New("paths: player order length mismatch")
	}
	seen := make([]bool, n)
	for _, v := range playerOrder {
		if v < 0 || v >= n || seen[v] {
			return nil, errors.New("paths: player order is not a permutation")
		}
		seen[v] = true
	}
	s := NewSet(sp)
	size := sp.Size()
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if x == y {
				continue
			}
			path := Path{x}
			cur := x
			for _, i := range playerOrder {
				want := sp.Digit(y, i)
				if sp.Digit(cur, i) != want {
					cur = sp.WithDigit(cur, i, want)
					path = append(path, cur)
				}
			}
			if err := s.Add(path); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Gamma5 builds the Theorem 5.1 path family Γℓ for a two-strategy game: the
// path from x to y flips the disagreeing players in the order given by the
// vertex ordering ℓ. (For two-strategy games this is exactly the paper's
// construction; BitFixing with playerOrder = ℓ.)
func Gamma5(sp *game.Space, ell []int) (*Set, error) {
	for i := 0; i < sp.Players(); i++ {
		if sp.Strategies(i) != 2 {
			return nil, errors.New("paths: Γℓ requires two strategies per player")
		}
	}
	return BitFixing(sp, ell)
}

// CongestionForOrdering computes ρ(Γℓ) for the logit dynamics of a
// two-strategy game under the vertex ordering ℓ, the left-hand side of
// Lemma 5.4.
func CongestionForOrdering(d *logit.Dynamics, ell []int) (float64, error) {
	sp := d.Space()
	s, err := Gamma5(sp, ell)
	if err != nil {
		return 0, err
	}
	par := linalg.ParallelConfig{}
	pi, err := d.StationaryPar(par)
	if err != nil {
		return 0, err
	}
	return s.Congestion(d.TransitionDensePar(par), pi)
}

// SpectralGapLowerFromCongestion converts a congestion ρ into the Theorem
// 2.6 relaxation bound 1/(1−λ₂) <= ρ.
func SpectralGapLowerFromCongestion(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return 1 / rho
}

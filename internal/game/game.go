// Package game implements the strategic-games substrate of the paper:
// finite games in normal form, profile-space indexing, potential-game
// verification, pure Nash and dominant-strategy analysis, and constructors
// for every game family the paper evaluates (2×2 coordination games,
// graphical coordination games, the Ising game, the Theorem 3.5 double-well
// family, the Theorem 4.3 dominant-strategy family, random potential games
// and singleton congestion games).
//
// Sign convention. The paper's Eq. (1) defines an exact potential by
//
//	u_i(a, x_-i) − u_i(b, x_-i) = Φ(b, x_-i) − Φ(a, x_-i),
//
// so utility increases exactly when the potential decreases, and the logit
// stationary distribution is the Gibbs measure π(x) ∝ exp(−β·Φ(x)) (the form
// used throughout the paper's proofs). Nash equilibria of potential games
// are local minima of Φ.
package game

import "fmt"

// Game is a finite strategic game in normal form. Implementations must be
// immutable after construction; Utility must not retain or modify x.
type Game interface {
	// Players returns the number of players n >= 1.
	Players() int
	// Strategies returns the number of strategies of player i (>= 1).
	Strategies(i int) int
	// Utility returns u_i(x) for the full strategy profile x
	// (len(x) == Players(), 0 <= x[j] < Strategies(j)).
	Utility(i int, x []int) float64
}

// Potential is implemented by games that expose an exact potential function
// in the sense of the paper's Eq. (1). Use VerifyPotential to check the
// claim on small games.
type Potential interface {
	Game
	// Phi returns the potential Φ(x).
	Phi(x []int) float64
}

// Space indexes the profile space S = S_1 × … × S_n with a mixed-radix code.
// Index 0 is the all-zeros profile; player 0 is the fastest-varying digit.
type Space struct {
	sizes   []int
	strides []int
	total   int
}

// NewSpace builds the profile space for the given per-player strategy
// counts. It panics if any count is < 1 or the total size overflows int.
func NewSpace(sizes []int) *Space {
	if len(sizes) == 0 {
		panic("game: empty strategy-count vector")
	}
	s := &Space{
		sizes:   append([]int(nil), sizes...),
		strides: make([]int, len(sizes)),
		total:   1,
	}
	for i, m := range sizes {
		if m < 1 {
			panic(fmt.Sprintf("game: player %d has %d strategies", i, m))
		}
		s.strides[i] = s.total
		next := s.total * m
		if next/m != s.total {
			panic("game: profile space overflows int")
		}
		s.total = next
	}
	return s
}

// SpaceOf builds the profile space of a game.
func SpaceOf(g Game) *Space {
	sizes := make([]int, g.Players())
	for i := range sizes {
		sizes[i] = g.Strategies(i)
	}
	return NewSpace(sizes)
}

// Players returns the number of players.
func (s *Space) Players() int { return len(s.sizes) }

// Strategies returns the number of strategies of player i.
func (s *Space) Strategies(i int) int { return s.sizes[i] }

// Size returns |S|, the number of profiles.
func (s *Space) Size() int { return s.total }

// Encode maps a profile to its index.
func (s *Space) Encode(x []int) int {
	if len(x) != len(s.sizes) {
		panic("game: Encode profile length mismatch")
	}
	idx := 0
	for i, v := range x {
		if v < 0 || v >= s.sizes[i] {
			panic(fmt.Sprintf("game: strategy %d out of range for player %d", v, i))
		}
		idx += v * s.strides[i]
	}
	return idx
}

// Stride returns the index step of player i's digit: moving player i from
// strategy a to b moves a profile's index by (b−a)·Stride(i).
func (s *Space) Stride(i int) int { return s.strides[i] }

// CheckProfile reports why x is not a profile of the space — a wrong
// length or an out-of-range strategy — or returns nil. Encode panics on
// exactly these inputs, so callers taking profiles from users check first.
func (s *Space) CheckProfile(x []int) error {
	if len(x) != len(s.sizes) {
		return fmt.Errorf("profile has %d entries for %d players", len(x), len(s.sizes))
	}
	for i, v := range x {
		if v < 0 || v >= s.sizes[i] {
			return fmt.Errorf("profile[%d] = %d out of range [0, %d)", i, v, s.sizes[i])
		}
	}
	return nil
}

// Decode writes the profile with the given index into dst and returns dst.
// If dst is nil a new slice is allocated.
func (s *Space) Decode(idx int, dst []int) []int {
	if idx < 0 || idx >= s.total {
		panic("game: Decode index out of range")
	}
	if dst == nil {
		dst = make([]int, len(s.sizes))
	} else if len(dst) != len(s.sizes) {
		panic("game: Decode dst length mismatch")
	}
	for i, m := range s.sizes {
		dst[i] = idx / s.strides[i] % m
	}
	return dst
}

// Digit returns player i's strategy in the profile with the given index,
// without materializing the whole profile.
func (s *Space) Digit(idx, i int) int {
	return idx / s.strides[i] % s.sizes[i]
}

// WithDigit returns the index of the profile obtained from idx by setting
// player i's strategy to v. This is the single-coordinate move underlying
// every logit-dynamics transition.
func (s *Space) WithDigit(idx, i, v int) int {
	if v < 0 || v >= s.sizes[i] {
		panic("game: WithDigit strategy out of range")
	}
	old := s.Digit(idx, i)
	return idx + (v-old)*s.strides[i]
}

// Hamming returns the Hamming distance between the profiles with indices a
// and b (number of players whose strategies differ).
func (s *Space) Hamming(a, b int) int {
	d := 0
	for i := range s.sizes {
		if s.Digit(a, i) != s.Digit(b, i) {
			d++
		}
	}
	return d
}

// MaxStrategies returns m = max_i |S_i|, the parameter appearing in the
// paper's bounds.
func (s *Space) MaxStrategies() int {
	m := 0
	for _, v := range s.sizes {
		if v > m {
			m = v
		}
	}
	return m
}

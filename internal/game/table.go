package game

import (
	"fmt"

	"logitdyn/internal/linalg"
)

// TableGame stores one utility table per player, indexed by profile index.
// It is the fully materialized normal form, and the workhorse for exact
// analysis of small games.
type TableGame struct {
	space *Space
	// utils[i][idx] = u_i(profile idx).
	utils [][]float64
	// phi, if non-nil, is a profile-indexed exact potential.
	phi []float64
}

// NewTableGame allocates a zero-utility table game over the given strategy
// counts.
func NewTableGame(sizes []int) *TableGame {
	sp := NewSpace(sizes)
	utils := make([][]float64, sp.Players())
	for i := range utils {
		utils[i] = make([]float64, sp.Size())
	}
	return &TableGame{space: sp, utils: utils}
}

// Materialize is MaterializePar on linalg.Serial.
func Materialize(g Game) *TableGame {
	return MaterializePar(g, linalg.Serial)
}

// MaterializePar copies an arbitrary Game into a TableGame, evaluating
// every utility once. If g implements Potential the potential is tabulated
// too. The profile space must be small enough to enumerate. Callers that
// sit under a global worker semaphore (the service) pass the tokens they
// actually hold. The budget cannot change any table entry — tabulation is
// element-wise per profile index.
func MaterializePar(g Game, par linalg.ParallelConfig) *TableGame {
	t := NewTableGame(sizesOf(g))
	par.For(t.space.Size(), func(lo, hi int) {
		x := make([]int, t.space.Players())
		for idx := lo; idx < hi; idx++ {
			t.space.Decode(idx, x)
			for i := range t.utils {
				t.utils[i][idx] = g.Utility(i, x)
			}
		}
	})
	if p, ok := AsPotential(g); ok {
		t.phi = make([]float64, t.space.Size())
		par.For(t.space.Size(), func(lo, hi int) {
			x := make([]int, t.space.Players())
			for idx := lo; idx < hi; idx++ {
				t.space.Decode(idx, x)
				t.phi[idx] = p.Phi(x)
			}
		})
	}
	return t
}

func sizesOf(g Game) []int {
	sizes := make([]int, g.Players())
	for i := range sizes {
		sizes[i] = g.Strategies(i)
	}
	return sizes
}

// Space returns the profile space of the game.
func (t *TableGame) Space() *Space { return t.space }

// Players returns the number of players.
func (t *TableGame) Players() int { return t.space.Players() }

// Strategies returns the number of strategies of player i.
func (t *TableGame) Strategies(i int) int { return t.space.Strategies(i) }

// Utility returns u_i(x).
func (t *TableGame) Utility(i int, x []int) float64 {
	return t.utils[i][t.space.Encode(x)]
}

// UtilityIndexed returns u_i of the profile with the given index, avoiding
// the encode step on hot paths.
func (t *TableGame) UtilityIndexed(i, idx int) float64 { return t.utils[i][idx] }

// SetUtility assigns u_i(x) = v.
func (t *TableGame) SetUtility(i int, x []int, v float64) {
	t.utils[i][t.space.Encode(x)] = v
}

// SetUtilityIndexed assigns u_i(profile idx) = v.
func (t *TableGame) SetUtilityIndexed(i, idx int, v float64) { t.utils[i][idx] = v }

// SetPhiTable installs a profile-indexed potential table. The caller asserts
// that it is an exact potential for the stored utilities; VerifyPotential
// checks the claim.
func (t *TableGame) SetPhiTable(phi []float64) {
	if len(phi) != t.space.Size() {
		panic(fmt.Sprintf("game: potential table has %d entries for %d profiles", len(phi), t.space.Size()))
	}
	t.phi = append([]float64(nil), phi...)
}

// HasPhi reports whether a potential table is installed.
func (t *TableGame) HasPhi() bool { return t.phi != nil }

// Phi returns Φ(x). It panics if no potential table is installed.
func (t *TableGame) Phi(x []int) float64 {
	if t.phi == nil {
		panic("game: Phi on a TableGame without a potential table")
	}
	return t.phi[t.space.Encode(x)]
}

// PhiIndexed returns Φ of the profile with the given index.
func (t *TableGame) PhiIndexed(idx int) float64 {
	if t.phi == nil {
		panic("game: PhiIndexed on a TableGame without a potential table")
	}
	return t.phi[idx]
}

var _ Potential = (*TableGame)(nil)

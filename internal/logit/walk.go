package logit

import (
	"math/bits"

	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
)

// Walker runs trajectories of the chain: the one stepping loop behind
// Trajectory, the replica engines and the service's simulate endpoints.
// A step draws a player i with r.Intn(n), then her new strategy with
// r.Categorical(σ_i(·|x)) — exactly Step's RNG consumption — and moves the
// profile index by (v − x_i)·Stride(i) from the tracked profile.
//
// σ_i(·|x) depends only on (x, i), so a walker sized for enough steps
// tabulates every row once, when the walks it will run take at least
// |S|·n steps in total — the rule under which the table never costs more
// σ evaluations than the walks would. Each row is produced by the same
// routine an on-the-fly step calls, so the table changes no bit of any
// trajectory; shorter walks evaluate σ on the fly. The table holds
// 8·|S|·Σᵢ|Sᵢ| bytes, no more than the CSR transition matrix of the same
// game when every |Sᵢ| ≥ 2. It is immutable: one Walker serves any number
// of concurrent walks.
type Walker struct {
	d       *Dynamics
	strides []int
	// off[i] is the offset of player i's row inside a profile's block of
	// the table, so player i's strategies are off[i+1]−off[i].
	off []int
	// rows is the σ table: the row of (profile idx, player i) is
	// rows[idx·width+off[i] : idx·width+off[i+1]], width = off[n]. nil
	// below the tabulation threshold.
	rows []float64
}

// NewWalker returns a walker for `walks` walks of `steps` steps each,
// tabulating σ when steps·walks ≥ |S|·n (both products formed in 128 bits,
// so no input overflows the rule). The table is built element-wise on
// par's worker budget, so the budget never changes it.
func (d *Dynamics) NewWalker(steps, walks int, par linalg.ParallelConfig) *Walker {
	sp := d.space
	n := sp.Players()
	w := &Walker{d: d, strides: make([]int, n), off: make([]int, n+1)}
	for i := 0; i < n; i++ {
		w.strides[i] = sp.Stride(i)
		w.off[i+1] = w.off[i] + sp.Strategies(i)
	}
	if steps <= 0 || walks <= 0 {
		return w
	}
	hiWalk, loWalk := bits.Mul64(uint64(steps), uint64(walks))
	hiTab, loTab := bits.Mul64(uint64(sp.Size()), uint64(n))
	if hiWalk < hiTab || hiWalk == hiTab && loWalk < loTab {
		return w
	}
	width := w.off[n]
	rows := make([]float64, sp.Size()*width)
	par.For(sp.Size(), func(lo, hi int) {
		x := make([]int, n)
		for idx := lo; idx < hi; idx++ {
			sp.Decode(idx, x)
			block := rows[idx*width : (idx+1)*width]
			for i := 0; i < n; i++ {
				d.updateProbsAt(i, x, idx, block[w.off[i]:w.off[i+1]])
			}
		}
	})
	w.rows = rows
	return w
}

// Walk runs t steps from start and adds the visit counts into counts
// (len |S|), which is not zeroed first — replica engines accumulate many
// walks into one worker-owned vector. The start profile is counted once.
// When every > 0, visit is called after every every-th step and after the
// last, with the step number, the current profile (read-only) and its
// index; a non-nil error from visit stops the walk and is returned, so Walk
// returns nil whenever visit is nil.
func (w *Walker) Walk(counts []int64, start []int, t int, r *rng.RNG, every int, visit func(step int, x []int, idx int) error) error {
	sp := w.d.space
	if len(counts) != sp.Size() {
		panic("logit: Walk counts size mismatch")
	}
	n := sp.Players()
	x := append([]int(nil), start...)
	idx := sp.Encode(x)
	counts[idx]++
	var probs [][]float64
	if w.rows == nil {
		probs = make([][]float64, n)
		for i := range probs {
			probs[i] = make([]float64, w.off[i+1]-w.off[i])
		}
	}
	rows, off, strides, width := w.rows, w.off, w.strides, w.off[n]
	for s := 0; s < t; {
		// Steps run in segments ending at each visit, so the inner loop
		// carries no per-step visit test.
		end := t
		if every > 0 {
			end = min(s+every, t)
		}
		for ; s < end; s++ {
			i := r.Intn(n)
			var row []float64
			if rows != nil {
				row = rows[idx*width+off[i] : idx*width+off[i+1]]
			} else {
				row = w.d.updateProbsAt(i, x, idx, probs[i])
			}
			v := r.Categorical(row)
			idx += (v - x[i]) * strides[i]
			x[i] = v
			counts[idx]++
		}
		if every > 0 {
			if err := visit(s, x, idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Trajectory runs t steps from the given starting profile on a walker
// sized to this one trajectory and returns the visit counts per profile
// index. The starting profile is counted once.
func (d *Dynamics) Trajectory(start []int, t int, r *rng.RNG) []int64 {
	counts := make([]int64, d.space.Size())
	d.NewWalker(t, 1, linalg.Serial).Walk(counts, start, t, r, 0, nil)
	return counts
}

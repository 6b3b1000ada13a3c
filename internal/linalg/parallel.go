// The parallel execution layer every backend shares. ParallelConfig carries
// a worker budget through the analysis stack (core.Options, the service's
// per-request budget, the CLI -workers flags) down to the row-sharded
// mat-vec loops, the Lanczos re-orthogonalization and the replica engine.
//
// Determinism contract: every helper here produces bit-identical results
// for every worker count, including 1. Element-wise loops (For, Axpy) are
// trivially order-independent; reductions (BlockSum, Dot) accumulate over
// FIXED blocks whose boundaries depend only on the problem size — never on
// the worker count — and combine the partials in block order; scatter
// accumulation (Scatter) uses fixed row shards combined in shard order the
// same way. Workers only change which goroutine computes a partial, never
// the floating-point association. This is what lets the service hand each
// request a load-dependent worker budget while the golden-report corpus
// stays stable to the last bit.
package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"logitdyn/internal/scratch"
)

// DefaultMinRows is the inline threshold: loops shorter than this never
// spawn goroutines (the pre-config parallelFor used the same cutoff).
const DefaultMinRows = 64

// ReduceBlock is the fixed block length of deterministic reductions
// (BlockSum, Dot). Serial and parallel runs accumulate the same per-block
// partials and combine them in the same order; vectors at or below this
// length reduce in one block, exactly matching a plain serial loop.
// Callers that keep per-block side state (e.g. a per-block argmax) may
// index it by lo/ReduceBlock.
const ReduceBlock = 4096

// scatterShardRows is the fixed shard height of deterministic scatter
// accumulation, and scatterMaxShards caps the number of column-sized
// partial buffers a transpose apply may allocate.
const (
	scatterShardRows = 8192
	scatterMaxShards = 32
)

// ParallelConfig is the execution value threaded through the analysis
// stack: the worker budget and the scratch arena travel together. The zero
// value selects GOMAXPROCS workers with the default inline threshold and
// no arena, preserving the behavior code had before the config existed.
type ParallelConfig struct {
	// Workers bounds how many goroutines a data-parallel loop may use;
	// 0 means GOMAXPROCS, 1 forces inline execution.
	Workers int
	// MinRows is the minimum rows each worker must receive before a loop
	// splits; 0 means DefaultMinRows. Loops shorter than MinRows run inline.
	MinRows int
	// Arena, when set, supplies the analysis' non-escaping working memory
	// (CSR arrays, potential tables, ζ-scan temporaries, the Lanczos
	// workspace); nil allocates fresh. An arena is owned by one analysis
	// at a time (see internal/scratch), so a config carrying one must not
	// be handed to two concurrent analyses. Like Workers, it never changes
	// a computed bit: checkouts come back zeroed, exactly like make.
	Arena *scratch.Arena
}

// Serial is the explicit one-worker config: everything runs inline.
var Serial = ParallelConfig{Workers: 1}

// Normalized fills in the defaults so equivalent spellings compare equal.
func (c ParallelConfig) Normalized() ParallelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinRows <= 0 {
		c.MinRows = DefaultMinRows
	}
	return c
}

// workersFor returns how many goroutines to use for an n-element loop:
// never more than the budget, and never so many that a worker gets fewer
// than MinRows elements.
func (c ParallelConfig) workersFor(n int) int {
	c = c.Normalized()
	w := c.Workers
	if byRows := n / c.MinRows; w > byRows {
		w = byRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For splits [0, n) into contiguous chunks across the configured workers.
// Each index must be written by exactly one chunk (element-wise
// independence); under that contract the result is bit-identical for every
// worker count. Small n runs inline.
func (c ParallelConfig) For(n int, body func(lo, hi int)) {
	workers := c.workersFor(n)
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BlockSum computes Σ block(lo, hi) over fixed blocks of ReduceBlock
// elements, combining the partials in block order. Because the block
// boundaries depend only on n, the sum is bit-identical for every worker
// count; for n <= ReduceBlock it degenerates to one serial block.
func (c ParallelConfig) BlockSum(n int, block func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	if blocks == 1 || c.workersFor(n) <= 1 {
		s := 0.0
		for b := 0; b < blocks; b++ {
			lo := b * ReduceBlock
			hi := lo + ReduceBlock
			if hi > n {
				hi = n
			}
			s += block(lo, hi)
		}
		return s
	}
	partials := make([]float64, blocks)
	var next atomic.Int64
	workers := c.workersFor(n)
	if workers > blocks {
		workers = blocks
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo := b * ReduceBlock
				hi := lo + ReduceBlock
				if hi > n {
					hi = n
				}
				partials[b] = block(lo, hi)
			}
		}()
	}
	wg.Wait()
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}

// Dot is the deterministic parallel inner product: per-block partial dots
// combined in block order. For vectors at or below ReduceBlock it returns
// exactly what the serial Dot returns.
//
// The serial path (one block, or a one-worker budget) is written out
// inline rather than through BlockSum: the callback would escape into
// BlockSum's goroutine branch and cost one closure allocation per call,
// which the Lanczos re-orthogonalization pays tens of thousands of times
// per analysis. The inline loop accumulates over the same fixed blocks in
// the same order, so the bits are identical.
func (c ParallelConfig) Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: ParallelConfig.Dot length mismatch")
	}
	n := len(a)
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	if blocks <= 1 || c.workersFor(n) <= 1 {
		s := 0.0
		for b0 := 0; b0 < n; b0 += ReduceBlock {
			hi := b0 + ReduceBlock
			if hi > n {
				hi = n
			}
			p := 0.0
			for i := b0; i < hi; i++ {
				p += a[i] * b[i]
			}
			s += p
		}
		return s
	}
	return c.BlockSum(n, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

// Axpy computes y += alpha*x across the configured workers. Element-wise
// independent, so any chunking produces identical bits. Like Dot, the
// serial path runs inline so hot callers pay no closure allocation.
func (c ParallelConfig) Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: ParallelConfig.Axpy length mismatch")
	}
	if c.workersFor(len(x)) <= 1 {
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	c.For(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// scatterShards returns the fixed shard count for a rows-tall scatter:
// ceil(rows/scatterShardRows) capped at scatterMaxShards. It depends only
// on rows, never on the worker budget — that is what keeps transpose
// applies bit-identical across worker counts.
func scatterShards(rows int) int {
	shards := (rows + scatterShardRows - 1) / scatterShardRows
	if shards > scatterMaxShards {
		shards = scatterMaxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// Scatter runs scatter-accumulation over fixed row shards: body adds row
// range [lo, hi)'s contributions into acc (len cols, pre-zeroed). With one
// shard it accumulates directly into dst; otherwise each shard owns a
// partial buffer and dst[j] = Σ_shards partial[s][j] is combined in shard
// order, so the result is bit-identical for every worker count. dst is
// zeroed first either way.
func (c ParallelConfig) Scatter(rows, cols int, dst []float64, body func(lo, hi int, acc []float64)) {
	if len(dst) != cols {
		panic("linalg: ParallelConfig.Scatter dst size mismatch")
	}
	Fill(dst, 0)
	if rows <= 0 {
		return
	}
	shards := scatterShards(rows)
	if shards == 1 {
		body(0, rows, dst)
		return
	}
	chunk := (rows + shards - 1) / shards
	if c.workersFor(rows) <= 1 {
		// Serial path: same per-shard partials combined in the same shard
		// order — identical bits to the parallel path — but one reusable
		// buffer instead of one allocation per shard.
		acc := make([]float64, cols)
		for s := 0; s < shards; s++ {
			lo := s * chunk
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			if lo >= hi {
				continue
			}
			Fill(acc, 0)
			body(lo, hi, acc)
			for j, v := range acc {
				dst[j] += v
			}
		}
		return
	}
	partials := make([][]float64, shards)
	var next atomic.Int64
	workers := c.workersFor(rows)
	if workers > shards {
		workers = shards
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				lo := s * chunk
				hi := lo + chunk
				if hi > rows {
					hi = rows
				}
				acc := make([]float64, cols)
				if lo < hi {
					body(lo, hi, acc)
				}
				partials[s] = acc
			}
		}()
	}
	wg.Wait()
	// Combine in shard order; the column loop is element-wise independent,
	// so it parallelizes safely too.
	c.For(cols, func(lo, hi int) {
		for _, acc := range partials {
			for j := lo; j < hi; j++ {
				dst[j] += acc[j]
			}
		}
	})
}

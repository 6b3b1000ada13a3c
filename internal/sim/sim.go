// Package sim is the parallel experiment and replica engine: it fans
// deterministic work out over a bounded worker pool, handing each task an
// independent, reproducible RNG stream split from a base seed (stream i is
// always Split(i) of the base generator, never a function of scheduling).
//
// Two aggregation shapes cover every caller in this repository:
//
//   - Map/Repeat return per-task results in input order, so tables and
//     batch responses read the same regardless of how tasks interleaved.
//   - SumCounts merges replica visit-count vectors element-wise into one
//     total. Integer addition is exact and commutative, so the total is
//     bit-identical for every worker count — the property the service's
//     deterministic concurrent simulation is built on.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"logitdyn/internal/rng"
)

// normWorkers resolves a worker budget: <= 0 selects GOMAXPROCS, and the
// pool never exceeds the task count.
func normWorkers(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPool is the shared bounded worker pool: task(i) runs exactly once for
// each i in [0, n), dealt to workers through an atomic counter. With
// workers == 1 it degenerates to a plain loop.
func runPool(n, workers int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// streams pre-splits one RNG stream per task so stream identity depends
// only on (seed, index), never on scheduling.
func streams(seed uint64, n int) []*rng.RNG {
	base := rng.New(seed)
	out := make([]*rng.RNG, n)
	for i := range out {
		out[i] = base.Split(uint64(i))
	}
	return out
}

// Map runs fn over every parameter on a bounded worker pool and returns
// the results in input order. Each invocation receives its index, the
// parameter, and an RNG stream derived deterministically from seed and the
// index. workers <= 0 selects GOMAXPROCS.
func Map[P, R any](params []P, seed uint64, workers int, fn func(i int, p P, r *rng.RNG) R) []R {
	results := make([]R, len(params))
	if len(params) == 0 {
		return results
	}
	str := streams(seed, len(params))
	runPool(len(params), normWorkers(workers, len(params)), func(i int) {
		results[i] = fn(i, params[i], str[i])
	})
	return results
}

// Repeat runs fn `trials` times in parallel with independent streams and
// returns the samples in trial order.
func Repeat[R any](trials int, seed uint64, workers int, fn func(trial int, r *rng.RNG) R) []R {
	idx := make([]int, trials)
	for i := range idx {
		idx[i] = i
	}
	return Map(idx, seed, workers, func(i int, _ int, r *rng.RNG) R {
		return fn(i, r)
	})
}

// SumCounts runs `replicas` counting tasks on a bounded worker pool and
// returns the element-wise sum of their n-long count vectors. Each replica
// receives the stream Split(replica) of the base seed and adds its visits
// into a worker-owned accumulator; the accumulators merge by integer
// addition, so the total is bit-identical for every worker count —
// workers=1 and workers=8 produce the same vector.
func SumCounts(replicas int, seed uint64, workers, n int, run func(replica int, r *rng.RNG, counts []int64)) []int64 {
	total := make([]int64, n)
	if replicas <= 0 {
		return total
	}
	workers = normWorkers(workers, replicas)
	str := streams(seed, replicas)
	if workers == 1 {
		for i := 0; i < replicas; i++ {
			run(i, str[i], total)
		}
		return total
	}
	accs := make([][]int64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := make([]int64, n)
			accs[w] = acc
			for {
				i := int(next.Add(1)) - 1
				if i >= replicas {
					return
				}
				run(i, str[i], acc)
			}
		}(w)
	}
	wg.Wait()
	for _, acc := range accs {
		for j, v := range acc {
			total[j] += v
		}
	}
	return total
}

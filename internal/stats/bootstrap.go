package stats

import (
	"errors"
	"sort"

	"logitdyn/internal/rng"
)

// Bootstrap resampling for the simulation-side estimators: coupling-based
// mixing-time estimates are quantiles of coalescence-time samples, whose
// sampling error has no clean closed form — the bootstrap supplies honest
// confidence intervals.

// BootstrapQuantileCI returns a (1−alpha) percentile-bootstrap confidence
// interval for the q-quantile of the sample: it resamples xs with
// replacement iters times, computes the quantile of each resample, and
// returns the alpha/2 and 1−alpha/2 quantiles of those statistics.
func BootstrapQuantileCI(xs []float64, q float64, iters int, alpha float64, r *rng.RNG) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errors.New("stats: bootstrap of empty sample")
	}
	if q < 0 || q > 1 || alpha <= 0 || alpha >= 1 {
		return 0, 0, errors.New("stats: bootstrap needs q in [0,1] and alpha in (0,1)")
	}
	if iters < 2 {
		return 0, 0, errors.New("stats: bootstrap needs iters >= 2")
	}
	stat := make([]float64, iters)
	resample := make([]float64, len(xs))
	for b := 0; b < iters; b++ {
		for i := range resample {
			resample[i] = xs[r.Intn(len(xs))]
		}
		stat[b] = Quantile(resample, q)
	}
	sort.Float64s(stat)
	lo = Quantile(stat, alpha/2)
	hi = Quantile(stat, 1-alpha/2)
	return lo, hi, nil
}

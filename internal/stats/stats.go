// Package stats provides the summary statistics and regression helpers used
// by the experiment harness: means with confidence intervals, quantiles, and
// least-squares exponent fitting for mixing-time growth rates.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds aggregate statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	StdErr float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
		s.StdErr = s.Std / math.Sqrt(float64(s.N))
	}
	return s
}

// Mean returns the arithmetic mean. It panics on an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty sample or a
// q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinFit holds a least-squares line y = Intercept + Slope*x.
type LinFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// ErrDegenerate is returned by fits whose inputs do not determine a line.
var ErrDegenerate = errors.New("stats: degenerate regression input")

// LinearFit fits y = a + b*x by ordinary least squares.
func LinearFit(x, y []float64) (LinFit, error) {
	if len(x) != len(y) {
		return LinFit{}, errors.New("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		return LinFit{}, ErrDegenerate
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinFit{}, ErrDegenerate
	}
	f := LinFit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	_ = n
	return f, nil
}

// ExpFit fits y = A * exp(b*x) by regressing log y on x. All y must be
// positive. The returned slope b is the growth exponent; this is the tool
// used to measure mixing-time exponents in β.
func ExpFit(x, y []float64) (LinFit, error) {
	logy := make([]float64, len(y))
	for i, v := range y {
		if v <= 0 {
			return LinFit{}, errors.New("stats: ExpFit requires positive y")
		}
		logy[i] = math.Log(v)
	}
	return LinearFit(x, logy)
}

// GeoMean returns the geometric mean of a positive sample.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: GeoMean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Histogram counts xs into nbins equal-width bins over [min, max]. Values at
// max land in the last bin. It panics if nbins < 1 or max <= min.
func Histogram(xs []float64, min, max float64, nbins int) []int {
	if nbins < 1 {
		panic("stats: Histogram needs at least one bin")
	}
	if max <= min {
		panic("stats: Histogram needs max > min")
	}
	counts := make([]int, nbins)
	width := (max - min) / float64(nbins)
	for _, x := range xs {
		if x < min || x > max {
			continue
		}
		b := int((x - min) / width)
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

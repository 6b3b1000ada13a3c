package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEq(s.Var, 2.5, 1e-12) {
		t.Fatalf("variance %v want 2.5", s.Var)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Var != 0 || s.StdErr != 0 {
		t.Fatalf("bad single-element summary: %+v", s)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Quantile(xs, 0.5) != 2.5 {
		t.Fatalf("median %v want 2.5", Quantile(xs, 0.5))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEq(Quantile(xs, 0.25), 1.75, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	f := func(raw []float64, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		return Quantile(raw, a) <= Quantile(raw, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 %v want 1", fit.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err != ErrDegenerate {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	if _, err := LinearFit([]float64{1}, []float64{2}); err != ErrDegenerate {
		t.Fatalf("want ErrDegenerate for n=1, got %v", err)
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{2}); err == nil {
		t.Fatal("want error on length mismatch")
	}
}

func TestExpFitRecoversExponent(t *testing.T) {
	// y = 3 * e^{1.7 x}
	var x, y []float64
	for i := 0; i < 10; i++ {
		xv := float64(i) * 0.5
		x = append(x, xv)
		y = append(y, 3*math.Exp(1.7*xv))
	}
	fit, err := ExpFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 1.7, 1e-9) {
		t.Fatalf("exponent %v want 1.7", fit.Slope)
	}
	if !almostEq(math.Exp(fit.Intercept), 3, 1e-9) {
		t.Fatalf("prefactor %v want 3", math.Exp(fit.Intercept))
	}
}

func TestExpFitRejectsNonPositive(t *testing.T) {
	if _, err := ExpFit([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Fatal("want error on zero y")
	}
}

func TestGeoMean(t *testing.T) {
	if !almostEq(GeoMean([]float64{1, 4}), 2, 1e-12) {
		t.Fatal("GeoMean(1,4) != 2")
	}
	if !almostEq(GeoMean([]float64{8}), 8, 1e-12) {
		t.Fatal("GeoMean single wrong")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0, -5, 7}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 2 || h[1] != 3 {
		t.Fatalf("histogram %v want [2 3]", h)
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		total := 0
		for _, v := range raw {
			if !math.IsNaN(v) && v >= 0 && v <= 1 {
				total++
			}
		}
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		h := Histogram(clean, 0, 1, 5)
		sum := 0
		for _, c := range h {
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

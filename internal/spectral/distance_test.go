package spectral

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

// referenceDistance is the straightforward d(t) loop the kernel replaced:
// modes gathered through a []mode slice and Psi.At, one start at a time.
// The kernel must reproduce it bit for bit.
func referenceDistance(d *Decomposition, t int64) float64 {
	n := len(d.Values)
	type mode struct {
		k  int
		lt float64
	}
	modes := make([]mode, 0, n-1)
	for k := 1; k < n; k++ {
		lt := powInt(d.Values[k], t)
		if math.Abs(lt) > 1e-17 {
			modes = append(modes, mode{k: k, lt: lt})
		}
	}
	if len(modes) == 0 {
		return 0
	}
	worst := 0.0
	var mu sync.Mutex
	d.par.For(n, func(lo, hi int) {
		localWorst := 0.0
		coef := make([]float64, len(modes))
		for x := lo; x < hi; x++ {
			for j, m := range modes {
				coef[j] = m.lt * d.Psi.At(x, m.k) / d.sqrtPi[x]
			}
			sum := 0.0
			for y := 0; y < n; y++ {
				dev := 0.0
				for j, m := range modes {
					dev += coef[j] * d.Psi.At(y, m.k)
				}
				sum += math.Abs(dev) * d.sqrtPi[y]
			}
			if tv := sum / 2; tv > localWorst {
				localWorst = tv
			}
		}
		mu.Lock()
		if localWorst > worst {
			worst = localWorst
		}
		mu.Unlock()
	})
	return worst
}

// cycleWalk returns the simple random walk on the n-cycle and its uniform
// stationary distribution. For odd n it is aperiodic with eigenvalues
// cos(2πk/n) down to about −1, so its slow modes sit at both ends of the
// spectrum.
func cycleWalk(n int) (*linalg.Dense, []float64) {
	p := linalg.NewDense(n, n)
	pi := make([]float64, n)
	for x := 0; x < n; x++ {
		p.Set(x, (x+1)%n, 0.5)
		p.Set(x, (x+n-1)%n, 0.5)
		pi[x] = 1 / float64(n)
	}
	return p, pi
}

// kernelCases are the decompositions the kernel is checked on: a potential
// game and a reversible chain with negative eigenvalues.
func kernelCases(t *testing.T) map[string]*Decomposition {
	t.Helper()
	g, err := game.NewDoubleWell(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := logit.New(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cyc, cycPi := cycleWalk(7)
	cycDec, err := Decompose(cyc, cycPi)
	if err != nil {
		t.Fatal(err)
	}
	if cycDec.MinEigenvalue() > -0.5 {
		t.Fatalf("7-cycle λ_min = %g, want a strongly negative mode", cycDec.MinEigenvalue())
	}
	return map[string]*Decomposition{
		"doublewell6": mustDecompose(t, dyn),
		"cycle7":      cycDec,
	}
}

// kernelBudgets are the worker budgets the kernel is checked at. MinRows 1
// makes even the 7-state chain split across workers.
var kernelBudgets = []linalg.ParallelConfig{
	{Workers: 1, MinRows: 1},
	{Workers: 2, MinRows: 1},
	{Workers: 4, MinRows: 1},
}

func TestDistanceMatchesReferenceBitwise(t *testing.T) {
	for name, dec := range kernelCases(t) {
		for _, par := range kernelBudgets {
			dec.WithParallel(par)
			for _, tt := range []int64{0, 1, 2, 3, 7, 50, 1_000_000} {
				got, want := dec.Distance(tt), referenceDistance(dec, tt)
				if got != want {
					t.Errorf("%s workers=%d t=%d: kernel %v, reference %v", name, par.Workers, tt, got, want)
				}
			}
		}
	}
}

func TestDistanceIsMaxOfDistanceFrom(t *testing.T) {
	for name, dec := range kernelCases(t) {
		for _, tt := range []int64{0, 1, 3, 50} {
			worst := 0.0
			for x := range dec.Values {
				if v := dec.DistanceFrom(x, tt); v > worst {
					worst = v
				}
			}
			if got := dec.Distance(tt); got != worst {
				t.Errorf("%s t=%d: Distance %v, max DistanceFrom %v", name, tt, got, worst)
			}
		}
	}
}

func TestMixedAtMatchesDistance(t *testing.T) {
	const eps = 0.25
	limit := eps + TVTol
	for name, dec := range kernelCases(t) {
		for _, par := range kernelBudgets {
			dec.WithParallel(par)
			tm, err := dec.MixingTime(eps, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			for tt := int64(0); tt <= tm+2; tt++ {
				if got, want := dec.mixedAt(tt, limit), dec.Distance(tt) <= limit; got != want {
					t.Errorf("%s workers=%d t=%d: early-exit predicate %v, Distance predicate %v", name, par.Workers, tt, got, want)
				}
			}
		}
	}
}

// fuzzChain builds a reversible chain from bytes: the random walk on a
// weighted graph with 2–13 vertices, edge weights (self-loops included)
// drawn from the bytes. Reversible with π(x) ∝ Σ_y w(x, y).
func fuzzChain(data []byte) (*linalg.Dense, []float64, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	n := 2 + int(data[0])%12
	data = data[1:]
	w := linalg.NewDense(n, n)
	i := 0
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			v := float64(data[i%len(data)]%8) / 7
			i++
			w.Set(x, y, v)
			w.Set(y, x, v)
		}
	}
	p := linalg.NewDense(n, n)
	pi := make([]float64, n)
	total := 0.0
	for x := 0; x < n; x++ {
		deg := linalg.Sum(w.Row(x))
		if deg == 0 {
			return nil, nil, false
		}
		for y := 0; y < n; y++ {
			p.Set(x, y, w.At(x, y)/deg)
		}
		pi[x] = deg
		total += deg
	}
	linalg.Scale(1/total, pi)
	return p, pi, true
}

func FuzzDistanceKernel(f *testing.F) {
	f.Add([]byte{5, 0, 7, 0, 0, 7, 0, 0, 7, 0, 7, 0, 7, 7, 0, 0}, uint16(3))
	f.Add([]byte{11, 1, 2, 3, 4, 5, 6, 7}, uint16(40))
	f.Add([]byte{0, 7, 7, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, tt uint16) {
		p, pi, ok := fuzzChain(data)
		if !ok {
			return
		}
		dec, err := Decompose(p, pi)
		if err != nil {
			return
		}
		for _, par := range kernelBudgets {
			dec.WithParallel(par)
			for _, s := range []int64{0, 1, int64(tt)} {
				if got, want := dec.Distance(s), referenceDistance(dec, s); got != want {
					t.Fatalf("n=%d workers=%d t=%d: kernel %v, reference %v", p.Rows, par.Workers, s, got, want)
				}
			}
		}
	})
}

// BenchmarkDenseMixingTime measures the dense route's t_mix search alone
// on the double wells the daemon's dense route serves (64, 128 and 256
// profiles, c = 2, l = 1) at β = 2.
func BenchmarkDenseMixingTime(b *testing.B) {
	for _, n := range []int{6, 7, 8} {
		g, err := game.NewDoubleWell(n, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := logit.New(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		pi, err := dyn.GibbsPar(linalg.Serial)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := Decompose(dyn.TransitionDensePar(linalg.ParallelConfig{}), pi)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("profiles=%d", len(pi)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := dec.MixingTime(0.25, 1<<62); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

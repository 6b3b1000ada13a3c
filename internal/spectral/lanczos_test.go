package spectral

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/rng"
)

func lanczosForGame(t *testing.T, g game.Game, beta float64, iters int) (*LanczosResult, *logit.Dynamics) {
	t.Helper()
	d, err := logit.New(g, beta)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := d.StationaryPar(linalg.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewSymOperator(d.TransitionCSRPar(linalg.ParallelConfig{}), pi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lanczos(op, iters, 1e-12, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

func TestLanczosMatchesDenseOnSmallChains(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	ringGame, _ := game.NewGraphical(graph.Ring(6), base)
	dw, _ := game.NewDoubleWell(6, 2, 1)
	for name, g := range map[string]game.Game{
		"coordination": base,
		"ring6":        ringGame,
		"double-well":  dw,
	} {
		for _, beta := range []float64{0.3, 1, 2} {
			res, d := lanczosForGame(t, g, beta, 200)
			pi, _ := d.StationaryPar(linalg.ParallelConfig{})
			dec, err := Decompose(d.TransitionDensePar(linalg.ParallelConfig{}), pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Lambda2-dec.Values[1]) > 1e-8 {
				t.Errorf("%s β=%g: Lanczos λ2 = %.12f vs dense %.12f", name, beta, res.Lambda2, dec.Values[1])
			}
			if math.Abs(res.LambdaMin-dec.MinEigenvalue()) > 1e-6 {
				t.Errorf("%s β=%g: Lanczos λmin = %.10f vs dense %.10f", name, beta, res.LambdaMin, dec.MinEigenvalue())
			}
		}
	}
}

func TestLanczosOperatorFixesTopVector(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	d, _ := logit.New(base, 1)
	pi, _ := d.StationaryPar(linalg.ParallelConfig{})
	op, err := NewSymOperator(d.TransitionCSRPar(linalg.ParallelConfig{}), pi)
	if err != nil {
		t.Fatal(err)
	}
	psi := op.TopVector()
	out := make([]float64, len(psi))
	op.Apply(out, psi)
	for i := range psi {
		if math.Abs(out[i]-psi[i]) > 1e-12 {
			t.Fatalf("A·ψ1 != ψ1 at %d: %g vs %g", i, out[i], psi[i])
		}
	}
}

func TestLanczosLargeRingWithinTheorems(t *testing.T) {
	// Ring n = 14 → 16384 states: far beyond what the dense experiments
	// touch. The Lanczos relaxation time must satisfy the Theorem 2.3 +
	// Theorem 5.6/5.7 envelope:
	//   (t_rel − 1)·log(1/2ε) <= Thm 5.6 upper  and  t_rel >= Thm 5.7-ish.
	n := 14
	delta, beta := 1.0, 0.5
	g, err := game.NewIsing(graph.Ring(n), delta)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := lanczosForGame(t, g, beta, 300)
	trel := res.RelaxationTime()
	if math.IsInf(trel, 0) {
		t.Fatal("relaxation time not resolved")
	}
	eps := 0.25
	lower := (trel - 1) * math.Log(1/(2*eps))
	// Theorem 5.6 upper bound, inlined to avoid a spectral↔mixing import
	// cycle in tests: n(1+e^{2δβ})(log n + log 1/ε)/2.
	upper56 := float64(n) * (1 + math.Exp(2*delta*beta)) * (math.Log(float64(n)) + math.Log(1/eps)) / 2
	if lower > upper56 {
		t.Errorf("spectral lower bound %g exceeds Theorem 5.6 upper %g", lower, upper56)
	}
	// Theorem 5.7 lower bound (1−2ε)/2·(1+e^{2δβ}) must be finite/positive.
	if lower < 0 || (1-2*eps)/2*(1+math.Exp(2*delta*beta)) <= 0 {
		t.Error("degenerate bounds")
	}
}

func TestLanczosEarlyTermination(t *testing.T) {
	// A two-state chain has a 1-dimensional restriction: Lanczos must stop
	// after one step and return the exact λ2 = 1 − a − b.
	a, b := 0.3, 0.2
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	_ = base
	s := sparseTwoState(a, b)
	pi := []float64{b / (a + b), a / (a + b)}
	op, err := NewSymOperator(s, pi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lanczos(op, 50, 1e-12, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	if math.Abs(res.Lambda2-(1-a-b)) > 1e-12 {
		t.Errorf("λ2 = %g, want %g", res.Lambda2, 1-a-b)
	}
}

func sparseTwoState(a, b float64) *linalg.CSR {
	return linalg.NewCSR(2, 2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{1 - a, a, b, 1 - b})
}

func TestLanczosValidation(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	if _, err := NewSymOperator(s, []float64{0.5}); err == nil {
		t.Error("size mismatch must error")
	}
	if _, err := NewSymOperator(s, []float64{1, 0}); err == nil {
		t.Error("zero mass must error")
	}
	op, _ := NewSymOperator(s, []float64{0.4, 0.6})
	if _, err := Lanczos(op, 1, 1e-12, rng.New(1)); err == nil {
		t.Error("maxIter < 2 must error")
	}
}

// referenceOrthogonalize is the re-orthogonalization sweep as it ran
// before the worker team: one par.Dot and one par.Axpy per vector. The
// team's sweep must match it bit for bit.
func referenceOrthogonalize(par linalg.ParallelConfig, w []float64, against [][]float64) {
	for _, b := range against {
		par.Axpy(-par.Dot(w, b), b, w)
	}
}

// referenceLanczos is the Lanczos loop as it ran before the worker team:
// Apply, then par.Dot/par.Axpy for α and the three-term update, then
// referenceOrthogonalize against ψ1 and the basis.
func referenceLanczos(op *SymOperator, maxIter int, tol float64, r *rng.RNG) (*LanczosResult, []float64, []float64) {
	n, par := op.N(), op.par
	maxIter = min(maxIter, n-1)
	psi1 := linalg.Clone(op.sqrtPi)
	normalize(psi1)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	referenceOrthogonalize(par, v, [][]float64{psi1})
	normalize(v)
	basis := [][]float64{v}
	var alphas, betas []float64
	prevLo, prevHi := math.Inf(-1), math.Inf(1)
	converged := false
	w := make([]float64, n)
	for k := 0; k < maxIter; k++ {
		vk := basis[len(basis)-1]
		op.Apply(w, vk)
		alpha := par.Dot(w, vk)
		alphas = append(alphas, alpha)
		par.Axpy(-alpha, vk, w)
		if len(basis) > 1 {
			par.Axpy(-betas[len(betas)-1], basis[len(basis)-2], w)
		}
		referenceOrthogonalize(par, w, append([][]float64{psi1}, basis...))
		beta := linalg.Norm2(w)
		if beta < tol {
			converged = true
			break
		}
		if len(alphas)%ritzCheckEvery == 0 && len(alphas) >= 2*ritzCheckEvery {
			lo, hi, _ := ritzExtremes(alphas, betas)
			if math.Abs(lo-prevLo) < tol && math.Abs(hi-prevHi) < tol {
				converged = true
				break
			}
			prevLo, prevHi = lo, hi
		}
		betas = append(betas, beta)
		next := linalg.Clone(w)
		linalg.Scale(1/beta, next)
		basis = append(basis, next)
	}
	k := len(alphas)
	if k == n-1 {
		converged = true
	}
	betas = betas[:k-1]
	lo, hi, _ := ritzExtremes(alphas, betas)
	return &LanczosResult{Lambda2: hi, LambdaMin: lo, Iterations: k, Converged: converged}, alphas, betas
}

// teamBudgets are the worker budgets the team is checked at.
var teamBudgets = []int{1, 2, 4, 8}

// withProcs raises GOMAXPROCS so that budgets above the host's core count
// still build teams that large, and returns the restore function.
func withProcs(n int) func() {
	old := runtime.GOMAXPROCS(max(n, runtime.GOMAXPROCS(0)))
	return func() { runtime.GOMAXPROCS(old) }
}

// pathChain returns a lazy walk on an n-state path with random
// conductances, which is reversible with respect to π_x ∝ Σ_y c(x, y),
// and that π.
func pathChain(n int) (linalg.Operator, []float64) {
	r := rng.New(uint64(n))
	c := make([]float64, n-1) // c[x] joins x and x+1
	for x := range c {
		c[x] = 0.5 + r.Float64()
	}
	pi := make([]float64, n)
	rowPtr, col, val := []int{0}, []int{}, []float64{}
	total := 0.0
	for x := 0; x < n; x++ {
		left, right := 0.0, 0.0
		if x > 0 {
			left = c[x-1]
		}
		if x < n-1 {
			right = c[x]
		}
		deg := left + right
		pi[x] = deg
		total += deg
		if x > 0 {
			col, val = append(col, x-1), append(val, left/(2*deg))
		}
		col, val = append(col, x), append(val, 0.5)
		if x < n-1 {
			col, val = append(col, x+1), append(val, right/(2*deg))
		}
		rowPtr = append(rowPtr, len(col))
	}
	linalg.Scale(1/total, pi)
	return linalg.NewCSR(n, n, rowPtr, col, val), pi
}

func TestLanczosTeamMatchesReference(t *testing.T) {
	defer withProcs(8)()
	cases := []struct {
		n, iters int
	}{
		{linalg.ReduceBlock - 1, 24},    // one short block
		{linalg.ReduceBlock, 24},        // one full block
		{3*linalg.ReduceBlock + 17, 24}, // 4 blocks, short tail; budget 8 exceeds the block count
		{1 << 16, lanczosBenchMaxIter},  // the canonical sparse workload
	}
	for _, c := range cases {
		var p linalg.Operator
		var pi []float64
		if c.n != 1<<16 {
			p, pi = pathChain(c.n)
		} else if raceEnabled {
			continue // same code on more blocks; the plain run checks it
		} else {
			// The 65,536-profile double well, which converges before the
			// iteration cap.
			g, err := game.NewDoubleWell(16, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			d, _ := logit.New(g, 1)
			pi, _ = d.GibbsPar(linalg.Serial)
			p = d.TransitionCSRPar(linalg.ParallelConfig{})
		}
		ref, err := NewSymOperatorPar(p, pi, linalg.Serial)
		if err != nil {
			t.Fatal(err)
		}
		want, wantA, wantB := referenceLanczos(ref, c.iters, 1e-12, rng.New(7))
		for _, workers := range teamBudgets {
			op, _ := NewSymOperatorPar(p, pi, linalg.ParallelConfig{Workers: workers})
			got, gotA, gotB, err := lanczos(op, c.iters, 1e-12, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want || !bitsEqual(gotA, wantA) || !bitsEqual(gotB, wantB) {
				t.Fatalf("n=%d workers=%d: team run %+v (%d α, %d β) differs from the reference %+v (%d α, %d β)",
					c.n, workers, *got, len(gotA), len(gotB), *want, len(wantA), len(wantB))
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzOrthogonalize checks the team's modified Gram–Schmidt sweep against
// referenceOrthogonalize, bit for bit, over vector lengths around the
// block size, sweep lengths and worker budgets.
func FuzzOrthogonalize(f *testing.F) {
	f.Add(uint16(linalg.ReduceBlock-1), uint8(3), uint8(2), uint64(1))
	f.Add(uint16(linalg.ReduceBlock), uint8(1), uint8(4), uint64(2))
	f.Add(uint16(3*linalg.ReduceBlock+17), uint8(5), uint8(8), uint64(3))
	f.Add(uint16(9*linalg.ReduceBlock), uint8(2), uint8(3), uint64(4))
	f.Add(uint16(1), uint8(0), uint8(2), uint64(5))
	f.Fuzz(func(t *testing.T, n uint16, k, workers uint8, seed uint64) {
		if n == 0 {
			return
		}
		defer withProcs(8)()
		r := rng.New(seed)
		vec := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.Float64() - 0.5
			}
			return v
		}
		against := make([][]float64, k%12)
		for j := range against {
			against[j] = vec()
		}
		want := vec()
		got := linalg.Clone(want)
		referenceOrthogonalize(linalg.Serial, want, against)
		team := linalg.ParallelConfig{Workers: int(workers%8) + 1}.NewTeam(len(got))
		defer team.Close()
		team.Run(func(m *linalg.TeamMember) { m.Orthogonalize(got, against) })
		if !bitsEqual(got, want) {
			t.Fatalf("n=%d k=%d workers=%d: team sweep differs from the reference", n, len(against), workers%8+1)
		}
	})
}

// lanczosBenchMaxIter is the iteration cap of the sparse analysis route.
const lanczosBenchMaxIter = 256

// BenchmarkLanczos measures one Lanczos call, as the sparse route runs it,
// on the 8,192- and 65,536-profile double wells (c = 4 and 5, l = 1) at
// β = 1 and worker budgets 1 and 2.
func BenchmarkLanczos(b *testing.B) {
	for _, w := range []struct{ n, c int }{{13, 4}, {16, 5}} {
		g, err := game.NewDoubleWell(w.n, w.c, 1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := logit.New(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		pi, err := d.GibbsPar(linalg.Serial)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			par := linalg.ParallelConfig{Workers: workers}
			op, err := NewSymOperatorPar(d.TransitionCSRPar(par), pi, par)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("profiles=%d/workers=%d", len(pi), workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Lanczos(op, lanczosBenchMaxIter, 1e-12, rng.New(0x1a9c205)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package mixing

import (
	"math"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
)

func TestAnalyzePotentialDoubleWell(t *testing.T) {
	n, c, l := 8, 3, 2.0
	dw, err := game.NewDoubleWell(n, c, l)
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzePotentialPar(dw, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(c) * l; st.DeltaPhi != want {
		t.Errorf("ΔΦ = %g, want %g", st.DeltaPhi, want)
	}
	if st.SmallDeltaPhi != l {
		t.Errorf("δΦ = %g, want %g", st.SmallDeltaPhi, l)
	}
	// Both wells have equal depth c·l, separated by a barrier at 0:
	// ζ = c·l = ΔΦ.
	if want := float64(c) * l; math.Abs(st.Zeta-want) > 1e-12 {
		t.Errorf("ζ = %g, want %g", st.Zeta, want)
	}
}

func TestAnalyzePotentialAsymmetricWell(t *testing.T) {
	// Deep well −4, shallow well −1.5, barrier 0: ζ must be the climb from
	// the *shallow* well, 1.5, strictly below ΔΦ = 4.
	g, err := game.NewAsymmetricDoubleWell(6, 2, 4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaPhi != 4 {
		t.Errorf("ΔΦ = %g, want 4", st.DeltaPhi)
	}
	if math.Abs(st.Zeta-1.5) > 1e-12 {
		t.Errorf("ζ = %g, want 1.5", st.Zeta)
	}
	if st.Zeta >= st.DeltaPhi {
		t.Error("this family must have ζ < ΔΦ")
	}
}

func TestAnalyzePotentialUnimodalHasZeroZeta(t *testing.T) {
	// A single-well landscape: Φ increasing in Hamming weight. Every profile
	// can descend monotonically, so ζ = 0.
	g, err := game.NewWeightPotential(6, func(w int) float64 { return float64(w) })
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if st.Zeta != 0 {
		t.Errorf("unimodal ζ = %g, want 0", st.Zeta)
	}
	if st.DeltaPhi != 6 {
		t.Errorf("ΔΦ = %g, want 6", st.DeltaPhi)
	}
	if st.SmallDeltaPhi != 1 {
		t.Errorf("δΦ = %g, want 1", st.SmallDeltaPhi)
	}
}

func TestAnalyzePotentialConstant(t *testing.T) {
	g, err := game.NewWeightPotential(4, func(int) float64 { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaPhi != 0 || st.SmallDeltaPhi != 0 || st.Zeta != 0 {
		t.Errorf("constant potential stats: %+v", st)
	}
}

func TestAnalyzePotentialCoordinationGame(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	st, err := AnalyzePotentialPar(base, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	// Φ values are {−3, 0, 0, −2}: ΔΦ = 3, δΦ = 3.
	if st.DeltaPhi != 3 {
		t.Errorf("ΔΦ = %g", st.DeltaPhi)
	}
	if st.SmallDeltaPhi != 3 {
		t.Errorf("δΦ = %g", st.SmallDeltaPhi)
	}
	// Leaving the shallower equilibrium (1,1) at −2 requires climbing to 0:
	// ζ = 2.
	if math.Abs(st.Zeta-2) > 1e-12 {
		t.Errorf("ζ = %g, want 2", st.Zeta)
	}
}

func TestAnalyzePotentialDominantDiagonal(t *testing.T) {
	g, _ := game.NewDominantDiagonal(3, 2)
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	// Φ ∈ {0, 1}, single well at 0: the plateau at 1 is connected, so any
	// profile reaches 0 without climbing: ζ = 0.
	if st.Zeta != 0 {
		t.Errorf("ζ = %g, want 0", st.Zeta)
	}
	if st.DeltaPhi != 1 {
		t.Errorf("ΔΦ = %g, want 1", st.DeltaPhi)
	}
}

func TestAnalyzePotentialGraphicalClique(t *testing.T) {
	base, _ := game.NewCoordination2x2(3, 2, 0, 0)
	n := 5
	g, _ := game.NewGraphical(graph.Clique(n), base)
	st, err := AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	// Clique potential depends only on #ones; Section 5.2: ζ = Φmax − Φ(1).
	kStar := game.CliqueCriticalOnes(n, base)
	phiMax := game.CliquePhiByOnes(n, kStar, base)
	phiOnes := game.CliquePhiByOnes(n, n, base)
	if want := phiMax - phiOnes; math.Abs(st.Zeta-want) > 1e-12 {
		t.Errorf("clique ζ = %g, want Φmax−Φ(1) = %g", st.Zeta, want)
	}
}

func TestAnalyzePhiTableSizeMismatch(t *testing.T) {
	sp := game.NewSpace([]int{2, 2})
	if _, err := AnalyzePhiTablePar(sp, make([]float64, 3), linalg.Serial); err == nil {
		t.Fatal("size mismatch must error")
	}
}

// Property-style check: ζ from the union-find sweep must match a brute-force
// minimax-path computation on small spaces.
func TestZetaMatchesBruteForce(t *testing.T) {
	games := []game.Potential{
		mustWeight(t, 5, func(w int) float64 { return float64((w - 2) * (w - 2)) }),
		mustWeight(t, 5, func(w int) float64 { return math.Sin(float64(w)) * 3 }),
		mustDoubleWell(t, 6, 2, 1),
	}
	for gi, g := range games {
		sp := game.SpaceOf(g)
		phi := make([]float64, sp.Size())
		x := make([]int, sp.Players())
		for idx := range phi {
			sp.Decode(idx, x)
			phi[idx] = g.Phi(x)
		}
		st, err := AnalyzePhiTablePar(sp, phi, linalg.Serial)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceZeta(sp, phi)
		if math.Abs(st.Zeta-want) > 1e-12 {
			t.Errorf("game %d: ζ union-find %g vs brute force %g", gi, st.Zeta, want)
		}
	}
}

func mustWeight(t *testing.T, n int, f func(int) float64) *game.WeightPotential {
	t.Helper()
	g, err := game.NewWeightPotential(n, f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustDoubleWell(t *testing.T, n, c int, l float64) *game.WeightPotential {
	t.Helper()
	g, err := game.NewDoubleWell(n, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteForceZeta computes max_{x,y: Φ(x)>=Φ(y)} (H(x,y) − Φ(x)) where
// H(x,y) is found by a minimax variant of Floyd–Warshall over the Hamming
// graph. Exponential in space size; test-only.
func bruteForceZeta(sp *game.Space, phi []float64) float64 {
	size := sp.Size()
	const inf = math.MaxFloat64
	h := make([][]float64, size)
	for i := range h {
		h[i] = make([]float64, size)
		for j := range h[i] {
			h[i][j] = inf
		}
		h[i][i] = phi[i]
	}
	n := sp.Players()
	for idx := 0; idx < size; idx++ {
		for i := 0; i < n; i++ {
			cur := sp.Digit(idx, i)
			for v := 0; v < sp.Strategies(i); v++ {
				if v == cur {
					continue
				}
				j := sp.WithDigit(idx, i, v)
				m := math.Max(phi[idx], phi[j])
				if m < h[idx][j] {
					h[idx][j] = m
				}
			}
		}
	}
	for k := 0; k < size; k++ {
		for i := 0; i < size; i++ {
			if h[i][k] == inf {
				continue
			}
			for j := 0; j < size; j++ {
				if via := math.Max(h[i][k], h[k][j]); via < h[i][j] {
					h[i][j] = via
				}
			}
		}
	}
	best := 0.0
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if phi[x] < phi[y] {
				continue
			}
			if climb := h[x][y] - phi[x]; climb > best {
				best = climb
			}
		}
	}
	return best
}

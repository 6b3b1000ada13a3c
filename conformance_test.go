package logitdyn_test

import (
	"math"
	"os"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/mixing"
	"logitdyn/internal/serialize"
)

// The theorem-conformance check over the committed golden corpus: every
// family's exact mixing time must sit inside every bound the paper proves
// for it, and the Lanczos backends must agree with the dense spectrum. The
// golden test pins the numbers; this one pins that the numbers still mean
// what the paper says, so a re-golden that broke a theorem would fail here.
// The relaxation-time lemmas (3.3 and 3.7) are checked on every backend's
// report, since each measures t_rel on its own route.

// lambdaTol is the relative λ* agreement required between the Lanczos
// (sparse, matfree) reports and the dense eigendecomposition.
const lambdaTol = 1e-12

func loadGolden(t *testing.T, name, backend string) serialize.ReportDoc {
	t.Helper()
	f, err := os.Open(goldenPath(name, backend))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := serialize.DecodeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestGoldenReportsConformToTheorems(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.s.Build()
			if err != nil {
				t.Fatal(err)
			}
			sp := game.SpaceOf(g)
			n, m := sp.Players(), sp.MaxStrategies()
			for _, backend := range goldenBackends {
				doc := loadGolden(t, c.name, backend)
				if doc.Stats == nil {
					t.Fatalf("%s report carries no potential stats", backend)
				}
				beta, trel := float64(doc.Beta), float64(doc.RelaxationTime)
				if u := mixing.Lemma33RelaxUpper(n, m, beta, float64(doc.Stats.DeltaPhi)); !(trel <= u) {
					t.Errorf("%s t_rel %v exceeds Lemma 3.3 upper %v", backend, trel, u)
				}
				if u := mixing.Lemma37RelaxUpper(n, m, beta, float64(doc.Stats.Zeta)); !(trel <= u) {
					t.Errorf("%s t_rel %v exceeds Lemma 3.7 upper %v", backend, trel, u)
				}
			}

			dense := loadGolden(t, c.name, "dense")
			if !dense.MixingTimeExact {
				t.Fatal("dense report lacks an exact mixing time")
			}
			tmix := float64(dense.MixingTime)
			lo, hi := float64(dense.SpectralLower), float64(dense.SpectralUpper)
			if !(lo <= tmix && tmix <= hi) {
				t.Errorf("Thm 2.3: t_mix %v outside [%v, %v]", tmix, lo, hi)
			}
			b := dense.Bounds
			if b == nil {
				t.Fatal("dense report carries no paper bounds")
			}
			if l := float64(b.Thm39Lower); !(l <= tmix) {
				t.Errorf("Thm 3.9 lower %v exceeds t_mix %v", l, tmix)
			}
			if u := float64(b.Thm34Upper); !(tmix <= u) {
				t.Errorf("t_mix %v exceeds Thm 3.4 upper %v", tmix, u)
			}
			// 0 means the bound does not apply to this game.
			for _, ub := range []struct {
				name string
				v    serialize.Float
			}{{"Thm 3.8", b.Thm38Upper}, {"Thm 4.2", b.Thm42Upper}} {
				if u := float64(ub.v); u != 0 && !(tmix <= u) {
					t.Errorf("t_mix %v exceeds %s upper %v", tmix, ub.name, u)
				}
			}

			want := float64(dense.LambdaStar)
			for _, backend := range []string{"sparse", "matfree"} {
				doc := loadGolden(t, c.name, backend)
				got := float64(doc.LambdaStar)
				if math.Abs(got-want) > lambdaTol*math.Abs(want) {
					t.Errorf("%s λ* %v differs from dense %v by more than %g relative", backend, got, want, lambdaTol)
				}
				lo, hi := float64(doc.SpectralLower), float64(doc.SpectralUpper)
				if !(lo <= tmix && tmix <= hi) {
					t.Errorf("%s sandwich [%v, %v] misses the dense t_mix %v", backend, lo, hi, tmix)
				}
			}
		})
	}
}

package serialize

import (
	"bytes"
	"strings"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
)

func TestGameRoundTripCoordination(t *testing.T) {
	g, err := game.NewCoordination2x2(3, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeGame(&buf, g, "coordination"); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeGame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sp := back.Space()
	x := make([]int, 2)
	for idx := 0; idx < sp.Size(); idx++ {
		sp.Decode(idx, x)
		for i := 0; i < 2; i++ {
			if back.Utility(i, x) != g.Utility(i, x) {
				t.Fatalf("utility mismatch at %v", x)
			}
		}
		if back.Phi(x) != g.Phi(x) {
			t.Fatalf("potential mismatch at %v", x)
		}
	}
}

func TestGameRoundTripPreservesGibbs(t *testing.T) {
	// The decoded game must induce the same logit chain: compare Gibbs
	// measures.
	soc := graph.Ring(4)
	g, err := game.NewIsing(soc, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeGame(&buf, g, "ising-ring4"); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeGame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := logit.New(g, 0.8)
	d2, _ := logit.New(back, 0.8)
	pi1, err := d1.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := d2.GibbsPar(linalg.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if tv := markov.TVDistance(pi1, pi2); tv > 1e-12 {
		t.Fatalf("Gibbs measures differ by %g after round trip", tv)
	}
}

func TestGameWithoutPotentialRoundTrips(t *testing.T) {
	g := game.NewTableGame([]int{2, 2})
	g.SetUtility(0, []int{1, 0}, 5)
	var buf bytes.Buffer
	if err := EncodeGame(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	// The document must not contain a phi field for a bare table game.
	if strings.Contains(buf.String(), "\"phi\"") {
		t.Fatal("bare table game must not serialize a potential")
	}
	back, err := DecodeGame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.HasPhi() {
		t.Fatal("decoded game must not claim a potential")
	}
	if back.Utility(0, []int{1, 0}) != 5 {
		t.Fatal("utility lost in round trip")
	}
}

func TestDecodeRejectsCorruptPotential(t *testing.T) {
	g, _ := game.NewCoordination2x2(3, 2, 0, 0)
	var buf bytes.Buffer
	if err := EncodeGame(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	// Corrupt the potential table.
	s := strings.Replace(buf.String(), "\"phi\": [\n    -3,", "\"phi\": [\n    42,", 1)
	if s == buf.String() {
		t.Fatalf("fixture assumption broken; document was %s", buf.String())
	}
	if _, err := DecodeGame(strings.NewReader(s)); err == nil {
		t.Fatal("corrupted potential must be rejected")
	}
}

func TestDecodeValidation(t *testing.T) {
	cases := map[string]string{
		"bad-json":      "{",
		"bad-version":   `{"version": 99, "sizes": [2], "utils": [[0, 0]]}`,
		"no-sizes":      `{"version": 1, "sizes": [], "utils": []}`,
		"zero-size":     `{"version": 1, "sizes": [0], "utils": [[]]}`,
		"missing-table": `{"version": 1, "sizes": [2, 2], "utils": [[0, 0, 0, 0]]}`,
		"short-table":   `{"version": 1, "sizes": [2, 2], "utils": [[0], [0, 0, 0, 0]]}`,
		"short-phi":     `{"version": 1, "sizes": [2], "utils": [[0, 0]], "phi": [0]}`,
	}
	for name, doc := range cases {
		if _, err := DecodeGame(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := ResultDoc{Game: "ring", Beta: 1.5, Eps: 0.25, MixingTime: 42, RelaxationTime: 17.5, DeltaPhi: 3, Zeta: 2}
	if err := EncodeResult(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in.Version = Version
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	if _, err := DecodeResult(strings.NewReader(`{"version": 5}`)); err == nil {
		t.Fatal("bad version must be rejected")
	}
}

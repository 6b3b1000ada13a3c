package logitdyn_test

import (
	"bytes"
	"testing"

	"logitdyn/internal/core"
	"logitdyn/internal/linalg"
	"logitdyn/internal/scratch"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spec"
)

// Scratch-arena determinism pins: the arena layer recycles every working
// buffer of an analysis, and these tests prove the recycling is invisible
// in the output — pooled and fresh runs produce byte-identical wire
// documents over the whole golden corpus, warm or cold, at any worker
// count. A failure here means a checkout escaped into a report or came
// back unzeroed.

// encodeScratchCase re-analyzes one corpus case into its wire bytes with
// an explicit worker budget and arena (either may be zero/nil).
func encodeScratchCase(t *testing.T, s spec.Spec, name, backend string, workers int, ar *scratch.Arena) []byte {
	t.Helper()
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.AnalyzeGame(g, goldenBeta, core.Options{
		Backend:  backend,
		Parallel: linalg.ParallelConfig{Workers: workers, MinRows: 1, Arena: ar},
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", name, backend, err)
	}
	var buf bytes.Buffer
	if err := serialize.EncodeReport(&buf, serialize.FromReport(rep, name, 0.25)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenReportsScratchInvariant drives ONE arena through the entire
// 9-family × 3-backend corpus twice — the second pass runs fully warm, so
// every checkout is a recycled slice — and byte-compares each document
// against a fresh-allocation run. Cycling shapes through one arena also
// exercises the length-keyed free lists the way a mixed sweep does.
func TestGoldenReportsScratchInvariant(t *testing.T) {
	ar := scratch.NewArena()
	for pass := 1; pass <= 2; pass++ {
		for _, c := range goldenCases {
			for _, backend := range goldenBackends {
				fresh := encodeScratchCase(t, c.s, c.name, backend, 0, nil)
				pooled := encodeScratchCase(t, c.s, c.name, backend, 0, ar)
				ar.Reset()
				if !bytes.Equal(fresh, pooled) {
					t.Fatalf("pass %d: %s/%s: pooled-arena report differs from fresh-allocation report", pass, c.name, backend)
				}
			}
		}
	}
}

// TestGoldenReportsScratchWorkerInvariant crosses both invariances on the
// multi-block Lanczos case (8,192 profiles — the basis spans more than one
// reduction block): a warm arena at workers=8 must reproduce the fresh
// workers=1 bytes exactly.
func TestGoldenReportsScratchWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-profile Lanczos triple takes a moment")
	}
	s := spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1}
	ar := scratch.NewArena()
	// First run only warms the arena's free lists.
	_ = encodeScratchCase(t, s, "doublewell-8192", "sparse", 8, ar)
	ar.Reset()
	warm8 := encodeScratchCase(t, s, "doublewell-8192", "sparse", 8, ar)
	fresh1 := encodeScratchCase(t, s, "doublewell-8192", "sparse", 1, nil)
	if !bytes.Equal(fresh1, warm8) {
		t.Fatal("warm-arena workers=8 report differs from fresh workers=1 report")
	}
}

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHarness builds the benchmark and the daemon, runs every workload for
// a one-second window with and without tracing, and asserts that each
// prints its whole metric set with units and passes every check.
//
//	cd perfbench && go test -run TestHarness -timeout 15m .
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	bench := filepath.Join(dir, "perfbench")
	daemon := filepath.Join(dir, "logitdynd")
	for _, args := range [][]string{{"-o", bench, "."}, {"-o", daemon, "logitdyn/cmd/logitdynd"}} {
		if out, err := exec.Command("go", append([]string{"build"}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "-workload", w, "-seed", "7", "-seconds", "1", "-trace", trace,
					"-daemon", daemon, "-workdir", dir)
				cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d, want a clean run\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s in %q, want %q", m.name, got.Unit, m.unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

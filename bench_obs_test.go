package logitdyn_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logitdyn/internal/obs"
	"logitdyn/internal/service"
	"logitdyn/internal/sweep"
)

// Observability overhead guardrail: the same analyze and sweep workloads
// run with instrumentation fully enabled (tracing + stage histograms) and
// fully disabled. The determinism tests already pin that the outputs are
// byte-identical either way; these benchmarks pin that the *cost* of
// enabled instrumentation stays within noise (<3% target — see
// BENCH_obs.json for recorded numbers and the single-core caveat).

func obsBenchServer(o *obs.Observer) *httptest.Server {
	svc := service.New(service.Config{CacheSize: 64, Obs: o})
	return httptest.NewServer(svc.Handler())
}

// benchObsAnalyze drives 8 cache-cold /v1/analyze requests per iteration
// against a fresh server, so every request pays the full pipeline
// (build, stationary, spectral, stats) with spans on or off.
func benchObsAnalyze(b *testing.B, mk func() *obs.Observer) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := obsBenchServer(mk())
		b.StartTimer()
		for k := 0; k < 8; k++ {
			body := fmt.Sprintf(
				`{"spec":{"game":"doublewell","n":8,"c":2,"delta1":1},"beta":%g}`,
				0.5+0.25*float64(k))
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("analyze: %s", resp.Status)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}

func BenchmarkObsAnalyze(b *testing.B) {
	b.Run("obs=on", func(b *testing.B) { benchObsAnalyze(b, func() *obs.Observer { return obs.New(64) }) })
	b.Run("obs=off", func(b *testing.B) { benchObsAnalyze(b, obs.Disabled) })
}

// benchObsSweep runs an 8-point grid through the sweep runner with the
// job context carrying a live trace (spans recorded for every stage of
// every point) versus a bare context (every obs call is a nil check).
func benchObsSweep(b *testing.B, mk func() *obs.Observer) {
	b.Helper()
	const gridJSON = `{
		"name": "obs-overhead",
		"axes": {"game": ["doublewell"], "n": [6, 8], "beta": {"from": 0.5, "to": 2, "steps": 4}},
		"base": {"c": 2, "delta1": 1}
	}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grid, err := sweep.ParseGrid(strings.NewReader(gridJSON))
		if err != nil {
			b.Fatal(err)
		}
		pool := service.NewPool(0)
		runner := &sweep.Runner{Eval: sweep.DirectEvalScratch(nil, pool, nil), Workers: pool.Workers()}
		ctx := context.Background()
		o := mk()
		tr := o.StartTrace("sweep")
		ctx = obs.With(ctx, o, tr)
		_, stats, err := runner.Run(ctx, grid)
		tr.Finish("done")
		if err != nil {
			b.Fatal(err)
		}
		if stats.Points != 8 {
			b.Fatalf("sweep covered %d points, want 8", stats.Points)
		}
	}
}

func BenchmarkObsSweep(b *testing.B) {
	b.Run("obs=on", func(b *testing.B) { benchObsSweep(b, func() *obs.Observer { return obs.New(64) }) })
	b.Run("obs=off", func(b *testing.B) { benchObsSweep(b, obs.Disabled) })
}

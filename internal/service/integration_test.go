package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"logitdyn/internal/core"
	"logitdyn/internal/serialize"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

func startServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.New(cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func getMetrics(t *testing.T, base string) service.MetricsDoc {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The acceptance test from the issue: two concurrent identical analyze
// requests perform exactly one analysis, a repeat is a memory hit visible
// in /metrics, and a batch β-sweep returns in-order results matching the
// direct core.Analyzer output.
func TestServiceEndToEnd(t *testing.T) {
	srv := startServer(t, service.Config{})
	req := service.AnalyzeRequest{
		Spec: &spec.Spec{Game: "ising", Graph: "ring", N: 6, Delta1: 1},
		Beta: 0.8,
	}

	// Phase 1: two concurrent identical requests → exactly one analysis.
	var wg sync.WaitGroup
	responses := make([]service.AnalyzeResponse, 2)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw := postJSON(t, srv.URL+"/v1/analyze", req, &responses[i])
			if code != http.StatusOK {
				t.Errorf("analyze %d: status %d: %s", i, code, raw)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	m := getMetrics(t, srv.URL)
	if got := m.Work.AnalysesPerformed; got != 1 {
		t.Fatalf("two concurrent identical requests performed %d analyses, want 1", got)
	}
	if responses[0].Key != responses[1].Key {
		t.Fatalf("identical requests got different keys: %s vs %s", responses[0].Key, responses[1].Key)
	}
	if responses[0].Report.MixingTime != responses[1].Report.MixingTime {
		t.Fatal("identical requests got different reports")
	}

	// Phase 2: a repeat is a cache hit, visible in the /metrics counter.
	hitsBefore := m.Cache.Hits
	var again service.AnalyzeResponse
	if code, raw := postJSON(t, srv.URL+"/v1/analyze", req, &again); code != http.StatusOK {
		t.Fatalf("repeat analyze: status %d: %s", code, raw)
	}
	if !again.Cached {
		t.Fatal("repeated request must report cached=true")
	}
	m = getMetrics(t, srv.URL)
	if m.Cache.Hits <= hitsBefore {
		t.Fatalf("cache hits did not advance: %d -> %d", hitsBefore, m.Cache.Hits)
	}
	if got := m.Work.AnalysesPerformed; got != 1 {
		t.Fatalf("repeat triggered a new analysis: performed = %d", got)
	}

	// Phase 3: a batch β-sweep returns results in input order that match
	// direct core.Analyzer output.
	betas := []float64{0.25, 0.5, 1.0, 2.0}
	sweep := service.BatchRequest{
		Spec:  &spec.Spec{Game: "doublewell", N: 5, C: 2, Delta1: 1},
		Betas: betas,
	}
	var batch service.BatchResponse
	if code, raw := postJSON(t, srv.URL+"/v1/analyze/batch", sweep, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	if len(batch.Results) != len(betas) {
		t.Fatalf("batch returned %d results for %d betas", len(batch.Results), len(betas))
	}
	g, err := (spec.Spec{Game: "doublewell", N: 5, C: 2, Delta1: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, beta := range betas {
		res := batch.Results[i]
		if res.Error != "" {
			t.Fatalf("batch item %d: %s", i, res.Error)
		}
		if got := float64(res.Report.Beta); got != beta {
			t.Fatalf("batch item %d out of order: beta %v, want %v", i, got, beta)
		}
		want, err := core.AnalyzeGame(g, beta, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.MixingTime != want.MixingTime {
			t.Fatalf("batch item %d: mixing time %d, want %d", i, res.Report.MixingTime, want.MixingTime)
		}
		if math.Abs(float64(res.Report.LambdaStar)-want.LambdaStar) > 1e-12 {
			t.Fatalf("batch item %d: lambda* %v, want %v", i, res.Report.LambdaStar, want.LambdaStar)
		}
		if res.Report.Bounds == nil || want.Bounds == nil {
			t.Fatalf("batch item %d: missing bounds", i)
		}
		if math.Abs(float64(res.Report.Bounds.Thm34Upper)-want.Bounds.Thm34Upper) > 1e-9 {
			t.Fatalf("batch item %d: Thm 3.4 bound drifted", i)
		}
	}
}

func TestServiceBatchExplicitItemsAndErrors(t *testing.T) {
	srv := startServer(t, service.Config{})
	batch := service.BatchRequest{Items: []service.AnalyzeRequest{
		{Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 1},
		{Beta: 1}, // missing game: per-item error, not a batch failure
		{Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 2},
	}}
	var resp service.BatchResponse
	if code, raw := postJSON(t, srv.URL+"/v1/analyze/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[2].Error != "" {
		t.Fatalf("valid items errored: %+v", resp.Results)
	}
	if resp.Results[1].Error == "" {
		t.Fatal("invalid item must carry its error")
	}
}

func TestServiceBatchSweepSharedGameDoc(t *testing.T) {
	// A sweep over an explicit table document shares the doc across
	// concurrently-analyzed β values; run under -race this doubles as a
	// regression test for the shared-doc mutation race.
	srv := startServer(t, service.Config{})
	g, err := (spec.Spec{Game: "ising", Graph: "ring", N: 4, Delta1: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(serialize.NewGameDoc(g, "ising-ring4"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "version") // version 0 exercises the defaulting path
	var resp service.BatchResponse
	body := map[string]any{"game": doc, "betas": []float64{0.3, 0.6, 0.9, 1.2}}
	if code, raw := postJSON(t, srv.URL+"/v1/analyze/batch", body, &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("item %d: %s", i, res.Error)
		}
	}
	// All four β share one game digest, so the keys differ only by β and
	// a repeat of the whole sweep is pure cache hits.
	var again service.BatchResponse
	if code, _ := postJSON(t, srv.URL+"/v1/analyze/batch", body, &again); code != http.StatusOK {
		t.Fatal("repeat sweep failed")
	}
	for i, res := range again.Results {
		if !res.Cached {
			t.Fatalf("repeat sweep item %d missed the cache", i)
		}
	}
	if m := getMetrics(t, srv.URL); m.Work.AnalysesPerformed != 4 {
		t.Fatalf("performed %d analyses for a repeated 4-β sweep, want 4", m.Work.AnalysesPerformed)
	}
}

func TestServiceSimulateDeterministic(t *testing.T) {
	srv := startServer(t, service.Config{})
	req := service.SimulateRequest{
		Spec:  &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2},
		Beta:  1,
		Steps: 20000,
		Seed:  7,
	}
	run := func() map[string]any {
		var doc map[string]any
		if code, raw := postJSON(t, srv.URL+"/v1/simulate", req, &doc); code != http.StatusOK {
			t.Fatalf("simulate: status %d: %s", code, raw)
		}
		return doc
	}
	a, b := run(), run()
	if fmt.Sprint(a["empirical"]) != fmt.Sprint(b["empirical"]) {
		t.Fatal("same seed must reproduce the same trajectory")
	}
	tv, ok := a["tv_gibbs"].(float64)
	if !ok {
		t.Fatalf("tv_gibbs missing or non-numeric: %v", a["tv_gibbs"])
	}
	if tv > 0.2 {
		t.Fatalf("empirical occupancy far from Gibbs: TV = %v", tv)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	srv := startServer(t, service.Config{})
	cases := []struct {
		path, body string
	}{
		{"/v1/analyze", `{`},
		{"/v1/analyze", `{"beta": 1}`},
		{"/v1/analyze", `{"spec":{"game":"nope"},"beta":1}`},
		{"/v1/analyze", `{"spec":{"game":"coordination"},"beta":1,"bogus":true}`},
		{"/v1/analyze/batch", `{"betas":[]}`},
		{"/v1/simulate", `{"spec":{"game":"coordination","delta0":3,"delta1":2},"beta":1,"steps":0}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// An out-of-range ε or max_t is a 400 decided before keying: no analysis
// runs, nothing enters the cache and nothing is written to the store.
func TestServiceRejectsOutOfRangeEps(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, service.Config{Store: st})
	dw := &spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}
	if code, body := postJSON(t, srv.URL+"/v1/analyze", service.AnalyzeRequest{Spec: dw, Beta: 1.5}, nil); code != http.StatusOK {
		t.Fatalf("valid analyze: status %d: %s", code, body)
	}
	before := getMetrics(t, srv.URL)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, body := range []string{
		`{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1.5,"eps":1.5}`,
		`{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1.5,"eps":-0.5}`,
		`{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1.5,"eps":1}`,
		`{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1.5,"max_t":-1}`,
		`{"spec":{"game":"doublewell","n":16,"c":5,"delta1":1},"beta":1,"eps":1.5}`,
	} {
		resp, err := client.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	after := getMetrics(t, srv.URL)
	if after.Work.AnalysesPerformed != before.Work.AnalysesPerformed || after.Work.AnalysesFailed != before.Work.AnalysesFailed {
		t.Errorf("rejected requests reached the analysis: work %+v -> %+v", before.Work, after.Work)
	}
	if after.Cache.Size != before.Cache.Size || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("rejected requests touched the cache: %+v -> %+v", before.Cache, after.Cache)
	}
	if after.Store.Store.Entries != before.Store.Store.Entries {
		t.Errorf("rejected requests wrote the store: %d -> %d entries", before.Store.Store.Entries, after.Store.Store.Entries)
	}
}

func TestServiceHealthz(t *testing.T) {
	srv := startServer(t, service.Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if m := getMetrics(t, srv.URL); m.Requests.Healthz != 1 {
		t.Fatalf("healthz request count = %d", m.Requests.Healthz)
	}
}

// The acceptance criterion of the operator-backend refactor: a potential
// game with ≥ 50,000 profiles — rejected outright by the old dense-only
// limits — completes /v1/analyze through the sparse Lanczos path, returns a
// finite relaxation time plus the Theorem 2.3 mixing-time sandwich, reports
// which backend ran, and shows up in the per-backend /metrics counters.
func TestServiceAnalyzeLargeGameViaSparseBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-profile Lanczos analysis takes about a second")
	}
	srv := startServer(t, service.Config{})
	req := service.AnalyzeRequest{
		// 2^16 = 65536 profiles.
		Spec: &spec.Spec{Game: "doublewell", N: 16, C: 5, Delta1: 1},
		Beta: 1,
	}

	// The same request pinned to the dense backend must be rejected with
	// the dense-specific cap in the message.
	denseReq := req
	denseReq.Backend = "dense"
	status, raw := postJSON(t, srv.URL+"/v1/analyze", denseReq, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("dense backend on 65536 profiles: status %d (%s), want 400", status, raw)
	}
	if !strings.Contains(raw, "dense-backend cap") {
		t.Fatalf("dense rejection must name the dense-backend cap, got: %s", raw)
	}

	var resp service.AnalyzeResponse
	status, raw = postJSON(t, srv.URL+"/v1/analyze", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, raw)
	}
	rep := resp.Report
	if rep.NumProfiles != 1<<16 {
		t.Fatalf("num_profiles = %d, want %d", rep.NumProfiles, 1<<16)
	}
	if rep.Backend != "sparse" {
		t.Fatalf("backend = %q, want sparse (auto routes above the dense cap)", rep.Backend)
	}
	if rep.MixingTimeExact {
		t.Fatal("sparse route must not claim an exact mixing time")
	}
	trel := float64(rep.RelaxationTime)
	if !(trel > 1) || math.IsInf(trel, 0) || math.IsNaN(trel) {
		t.Fatalf("relaxation_time = %g", trel)
	}
	lo, hi := float64(rep.SpectralLower), float64(rep.SpectralUpper)
	if !(lo >= 0) || !(hi > lo) || math.IsInf(hi, 0) {
		t.Fatalf("sandwich [%g, %g] is not a usable envelope", lo, hi)
	}
	if rep.LanczosIterations <= 0 {
		t.Fatalf("lanczos_iterations = %d", rep.LanczosIterations)
	}
	if !rep.SpectralConverged {
		t.Fatal("Lanczos must converge on this chain; the response flags truncation otherwise")
	}
	if len(rep.Stationary) != 0 {
		t.Fatal("large responses must elide the 65536-entry stationary vector")
	}
	if rep.Stats == nil || float64(rep.Stats.DeltaPhi) <= 0 {
		t.Fatal("scalar potential statistics must survive the sparse route")
	}

	// A repeat of the identical request must be a cache hit — and so must
	// an explicit "sparse" spelling, because keys are derived from the
	// resolved backend, not the requested one.
	var again service.AnalyzeResponse
	if status, raw := postJSON(t, srv.URL+"/v1/analyze", req, &again); status != http.StatusOK {
		t.Fatalf("repeat analyze: status %d: %s", status, raw)
	}
	if !again.Cached || again.Key != resp.Key {
		t.Fatalf("repeat must hit the cache under the same key (cached=%v)", again.Cached)
	}
	explicit := req
	explicit.Backend = "sparse"
	var pinned service.AnalyzeResponse
	if status, raw := postJSON(t, srv.URL+"/v1/analyze", explicit, &pinned); status != http.StatusOK {
		t.Fatalf("explicit sparse analyze: status %d: %s", status, raw)
	}
	if !pinned.Cached || pinned.Key != resp.Key {
		t.Fatalf("auto and its resolved backend must share one cache slot (cached=%v, keys %s vs %s)",
			pinned.Cached, pinned.Key, resp.Key)
	}
	m := getMetrics(t, srv.URL)
	if m.Work.AnalysesByBackend.Sparse != 1 {
		t.Fatalf("analyses_by_backend.sparse = %d, want 1", m.Work.AnalysesByBackend.Sparse)
	}
}

// An explicit matfree request on a mid-size game must run the matrix-free
// operator and agree with the sparse answer (same Lanczos seed, same
// spectrum), cached under a distinct key.
func TestServiceMatFreeBackend(t *testing.T) {
	srv := startServer(t, service.Config{})
	base := service.AnalyzeRequest{
		Spec: &spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1},
		Beta: 1,
	}
	sparseReq, matfreeReq := base, base
	sparseReq.Backend = "sparse"
	matfreeReq.Backend = "matfree"

	var sparse, matfree service.AnalyzeResponse
	if status, raw := postJSON(t, srv.URL+"/v1/analyze", sparseReq, &sparse); status != http.StatusOK {
		t.Fatalf("sparse: %d: %s", status, raw)
	}
	if status, raw := postJSON(t, srv.URL+"/v1/analyze", matfreeReq, &matfree); status != http.StatusOK {
		t.Fatalf("matfree: %d: %s", status, raw)
	}
	if matfree.Report.Backend != "matfree" || sparse.Report.Backend != "sparse" {
		t.Fatalf("backends = %q/%q", sparse.Report.Backend, matfree.Report.Backend)
	}
	if matfree.Key == sparse.Key {
		t.Fatal("different backends must cache under different keys")
	}
	if diff := math.Abs(float64(matfree.Report.LambdaStar) - float64(sparse.Report.LambdaStar)); diff > 1e-9 {
		t.Fatalf("λ* differs between sparse and matfree by %g", diff)
	}
	m := getMetrics(t, srv.URL)
	if m.Work.AnalysesByBackend.Sparse != 1 || m.Work.AnalysesByBackend.MatFree != 1 {
		t.Fatalf("backend split = %+v", m.Work.AnalysesByBackend)
	}
}

// spec sits below core in the import graph and restates the dense
// threshold; this pin keeps the two defaults from drifting apart.
func TestDefaultLimitsMatchCoreDenseThreshold(t *testing.T) {
	if spec.DefaultLimits().MaxProfiles != core.DefaultMaxExactStates {
		t.Fatalf("spec.DefaultLimits().MaxProfiles = %d, core.DefaultMaxExactStates = %d — keep them in sync",
			spec.DefaultLimits().MaxProfiles, core.DefaultMaxExactStates)
	}
}

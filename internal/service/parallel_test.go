package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"logitdyn/internal/service"
	"logitdyn/internal/spec"
)

// Regression test for the deadlock-by-oversubscription failure mode: with a
// worker budget far smaller than batch size × per-request fan-out, every
// request must still complete, because the single request token is acquired
// blocking and all intra-request extras are try-acquired only. Before the
// single-semaphore pool, a saturated batch could hold every slot while each
// item waited for parallel slots that could never free.
func TestBatchOversubscriptionCannotDeadlock(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 1, MaxBatch: 64})
	betas := make([]float64, 32)
	for i := range betas {
		betas[i] = 0.1 + 0.05*float64(i)
	}
	var resp service.BatchResponse
	code, raw := postJSON(t, srv.URL+"/v1/analyze/batch", service.BatchRequest{
		Spec:  &spec.Spec{Game: "doublewell", N: 5, C: 2, Delta1: 1},
		Betas: betas,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Results) != len(betas) {
		t.Fatalf("%d results for %d betas", len(resp.Results), len(betas))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
	}
	m := getMetrics(t, srv.URL)
	if m.Work.ParallelExtraInUse != 0 {
		t.Fatalf("extra tokens leaked: %d still in use", m.Work.ParallelExtraInUse)
	}
	// A 1-token pool has no extras to grant; the denials are the
	// utilization signal that the budget saturated.
	if m.Work.ParallelExtraGranted != 0 {
		t.Fatalf("a 1-worker pool granted %d extra tokens", m.Work.ParallelExtraGranted)
	}
}

// Same seed + same game ⇒ bit-identical SimulationDoc, whether the service
// runs the replicas on 1 worker or 8. Replica streams derive from the seed
// and the replica index, and counts merge by integer addition, so the
// server's worker budget must be unobservable in the response body.
func TestSimulateDocBitIdenticalAcrossWorkerBudgets(t *testing.T) {
	req := service.SimulateRequest{
		Spec:     &spec.Spec{Game: "ising", Graph: "ring", N: 5, Delta1: 1},
		Beta:     0.7,
		Steps:    5_000,
		Replicas: 32,
		Seed:     1234,
	}
	body := func(workers int) string {
		srv := startServer(t, service.Config{Workers: workers})
		code, raw := postJSON(t, srv.URL+"/v1/simulate", req, nil)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, code, raw)
		}
		return raw
	}
	if one, eight := body(1), body(8); one != eight {
		t.Fatalf("simulate response depends on the worker budget:\nworkers=1: %s\nworkers=8: %s", one, eight)
	}
}

// Replica pooling must tighten the empirical measure: 32 pooled replicas
// land much closer to Gibbs than a single trajectory of the same length.
func TestSimulateReplicasPoolOccupancy(t *testing.T) {
	srv := startServer(t, service.Config{})
	run := func(replicas int) float64 {
		var doc map[string]any
		code, raw := postJSON(t, srv.URL+"/v1/simulate", service.SimulateRequest{
			Spec:     &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2},
			Beta:     1,
			Steps:    2_000,
			Replicas: replicas,
			Seed:     5,
		}, &doc)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		if got := doc["replicas"]; got != float64(replicas) {
			t.Fatalf("doc.replicas = %v, want %d", got, replicas)
		}
		tv, ok := doc["tv_gibbs"].(float64)
		if !ok {
			t.Fatalf("tv_gibbs missing: %v", doc["tv_gibbs"])
		}
		return tv
	}
	single, pooled := run(1), run(64)
	if pooled >= single {
		t.Fatalf("64 replicas (TV %g) must beat 1 replica (TV %g)", pooled, single)
	}
}

func TestSimulateReplicaLimits(t *testing.T) {
	srv := startServer(t, service.Config{})
	cases := []service.SimulateRequest{
		{Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 1, Steps: 100, Replicas: -1},
		{Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 1, Steps: 100, Replicas: 200_000},
		// 1e6 steps × 100 replicas blows the total step budget even though
		// each cap individually passes.
		{Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 1, Steps: 1_000_000, Replicas: 100},
	}
	for i, req := range cases {
		if code, raw := postJSON(t, srv.URL+"/v1/simulate", req, nil); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, code, raw)
		}
	}
}

// A mixed analyze/simulate/batch hammer against one service instance. Run
// under -race (CI does) this is the data-race canary for the shared pool,
// cache, and metrics counters; without -race it still checks that heavy
// mixed load neither errors nor deadlocks.
func TestServiceMixedLoadStress(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 4, CacheSize: 8})
	var wg sync.WaitGroup
	errs := make(chan string, 128)
	post := func(path string, body any) {
		defer wg.Done()
		buf, err := json.Marshal(body)
		if err != nil {
			errs <- err.Error()
			return
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			errs <- err.Error()
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Sprintf("%s: status %d", path, resp.StatusCode)
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go post("/v1/analyze", service.AnalyzeRequest{
			Spec: &spec.Spec{Game: "ising", Graph: "ring", N: 5, Delta1: 1},
			Beta: 0.5 + 0.01*float64(i%4),
		})
		go post("/v1/simulate", service.SimulateRequest{
			Spec:     &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2},
			Beta:     1,
			Steps:    2_000,
			Replicas: 8,
			Seed:     uint64(i),
		})
		go post("/v1/analyze/batch", service.BatchRequest{
			Spec:  &spec.Spec{Game: "doublewell", N: 5, C: 2, Delta1: 1},
			Betas: []float64{0.25, 0.5, 1},
		})
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	m := getMetrics(t, srv.URL)
	if m.Work.InFlight != 0 || m.Work.ParallelExtraInUse != 0 {
		t.Fatalf("tokens leaked after drain: in_flight=%d extras=%d", m.Work.InFlight, m.Work.ParallelExtraInUse)
	}
}

// Concurrent arena checkout under mixed analyze + sweep load: analyze
// requests and an async sweep job race for the service's one scratch pool
// while the -race detector watches the checkout paths (CI runs this
// package with -race). After the drain every arena must be back in the
// pool with zero outstanding bytes — an arena held past its request, or
// one shared by two analyses, shows up here.
func TestScratchPoolConcurrentMixedLoad(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 4, CacheSize: 8})
	var created service.SweepCreatedDoc
	status, raw := postJSON(t, srv.URL+"/v1/sweeps", map[string]any{
		"axes": map[string]any{
			"game": []string{"doublewell"},
			"n":    []int{6},
			"beta": map[string]any{"from": 0.5, "to": 2, "steps": 6},
		},
		"base": map[string]any{"c": 2, "delta1": 1},
	}, nil)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", status, raw)
	}
	if err := json.Unmarshal([]byte(raw), &created); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct betas over one spec: every request is a fresh analysis
			// of the same shape, the arena pool's best case and the riskiest
			// aliasing surface.
			code, body := postJSON(t, srv.URL+"/v1/analyze", service.AnalyzeRequest{
				Spec: &spec.Spec{Game: "ising", Graph: "ring", N: 6, Delta1: 1},
				Beta: 0.5 + 0.01*float64(i),
			}, nil)
			if code != http.StatusOK {
				t.Errorf("analyze %d: status %d: %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	doc := waitSweepDone(t, srv.URL, created.ID)
	if doc.Status != "done" {
		t.Fatalf("sweep ended %q (%s)", doc.Status, doc.Error)
	}
	m := getMetrics(t, srv.URL)
	if m.Scratch.OutstandingBytes != 0 {
		t.Fatalf("%d scratch bytes still outstanding after drain", m.Scratch.OutstandingBytes)
	}
	if m.Scratch.Hits == 0 {
		t.Fatalf("no warm checkouts under same-shape load: %+v", m.Scratch)
	}
	if m.Scratch.Arenas < 1 || m.Scratch.Arenas > 4 {
		t.Fatalf("arenas = %d, want within the 4-token budget", m.Scratch.Arenas)
	}
}

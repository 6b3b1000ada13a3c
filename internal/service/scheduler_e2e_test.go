// End-to-end tests for the scheduler: one-way terminal sweep status (the
// DELETE/completion race), journal replay after a simulated daemon
// restart, and byte-determinism of sweep tables under concurrent
// interactive load.
package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"logitdyn/internal/journal"
	"logitdyn/internal/service"
	"logitdyn/internal/store"
)

// smallGrid is an 8-point doublewell grid whose β axis is an explicit
// list, so sub-lists of it warm an exact subset of its store keys.
func smallGrid(betas []float64) map[string]any {
	return map[string]any{
		"name": "scheduler",
		"axes": map[string]any{"n": []int{6, 8}, "beta": betas},
		"base": map[string]any{"game": "doublewell", "c": 2, "delta1": 1},
	}
}

var fullBetas = []float64{0.5, 1, 1.5, 2}

// startSweepJob POSTs a grid and returns the created doc.
func startSweepJob(t *testing.T, base string, grid map[string]any) service.SweepCreatedDoc {
	t.Helper()
	var created service.SweepCreatedDoc
	status, raw := postJSON(t, base+"/v1/sweeps", grid, nil)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", status, raw)
	}
	if err := json.Unmarshal([]byte(raw), &created); err != nil {
		t.Fatal(err)
	}
	return created
}

// deleteSweep issues DELETE and returns the status string the response
// body reports.
func deleteSweep(t *testing.T, base, id string) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body["status"]
}

// The satellite fix: DELETE on a job that already finished must report the
// job's actual terminal state, and the state must never be rewritten.
func TestSweepDeleteAfterDoneReportsDone(t *testing.T) {
	srv := startServer(t, service.Config{})
	created := startSweepJob(t, srv.URL, smallGrid(fullBetas))
	if doc := waitSweepDone(t, srv.URL, created.ID); doc.Status != "done" {
		t.Fatalf("sweep ended %q, want done", doc.Status)
	}
	if got := deleteSweep(t, srv.URL, created.ID); got != "done" {
		t.Fatalf("DELETE of a finished sweep reported %q, want done", got)
	}
	if doc := waitSweepDone(t, srv.URL, created.ID); doc.Status != "done" {
		t.Fatalf("DELETE rewrote terminal status to %q", doc.Status)
	}
}

// The race itself, under -race in CI: DELETE fired while the job's last
// points are completing. Whatever interleaving happens, the status DELETE
// reports and the status GET settles on must agree, and neither may
// change afterwards — terminal states are first-writer-wins.
func TestSweepDeleteCompletionRace(t *testing.T) {
	srv := startServer(t, service.Config{})
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for i := 0; i < iters; i++ {
		created := startSweepJob(t, srv.URL, smallGrid([]float64{0.5, 1}))
		// Stagger the DELETE across iterations so some land mid-run and
		// some after completion.
		time.Sleep(time.Duration(i*i) * 5 * time.Millisecond)
		reported := deleteSweep(t, srv.URL, created.ID)
		final := waitSweepDone(t, srv.URL, created.ID)
		if reported != final.Status {
			t.Fatalf("iter %d: DELETE reported %q but job settled on %q", i, reported, final.Status)
		}
		if again := waitSweepDone(t, srv.URL, created.ID); again.Status != final.Status {
			t.Fatalf("iter %d: terminal status drifted %q -> %q", i, final.Status, again.Status)
		}
	}
}

// A journaled sweep must survive a daemon "restart": the new daemon
// replays the grid under its original id, serves already-completed points
// from the warm store (analyzing only the missing ones), and produces a
// table byte-identical to an uninterrupted run.
func TestJournalReplayResumesSweep(t *testing.T) {
	// Reference: the full grid, uninterrupted, on a fresh daemon.
	ref := startServer(t, service.Config{})
	refDoc := waitSweepDone(t, ref.URL, startSweepJob(t, ref.URL, smallGrid(fullBetas)).ID)
	refRows := rowsJSON(t, refDoc.Rows)

	// "First life": a daemon with a store completes half the grid — the
	// state a kill −9 at 50% leaves behind — and its journal still holds
	// the full grid, because only terminal transitions remove entries.
	storeDir, journalDir := t.TempDir(), t.TempDir()
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := startServer(t, service.Config{Store: st1})
	warmDoc := waitSweepDone(t, warm.URL, startSweepJob(t, warm.URL, smallGrid(fullBetas[:2])).ID)
	if warmDoc.Stats.Analyzed != 4 {
		t.Fatalf("warm run analyzed %d points, want 4", warmDoc.Stats.Analyzed)
	}
	jl, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Now().Add(-time.Minute)
	if err := jl.Record("swp-000042", created, smallGrid(fullBetas)); err != nil {
		t.Fatal(err)
	}

	// "Second life": same store, same journal, fresh process.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jl2, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Store: st2, Journal: jl2})
	if n := svc.ReplayJournal(); n != 1 {
		t.Fatalf("ReplayJournal = %d, want 1", n)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	doc := waitSweepDone(t, srv.URL, "swp-000042")
	if doc.Status != "done" {
		t.Fatalf("replayed sweep ended %q: %s", doc.Status, doc.Error)
	}
	// Resume cost: the 4 warm points are store reads, only the 4 missing
	// ones analyze.
	if doc.Stats.StoreHits != 4 || doc.Stats.Analyzed != 4 {
		t.Fatalf("resume stats = %+v, want 4 store hits + 4 analyzed", doc.Stats)
	}
	// The contract: byte-identical to the uninterrupted run.
	if got := rowsJSON(t, doc.Rows); got != refRows {
		t.Fatalf("resumed table diverges from uninterrupted run:\n%s\nvs\n%s", got, refRows)
	}
	// The terminal transition clears the journal (the remove races the
	// status flip by a hair, so poll briefly).
	deadline := time.Now().Add(10 * time.Second)
	for jl2.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still holds %d entries after completion", jl2.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Replay advanced the id sequence past the recovered job, so new POSTs
	// cannot collide with it.
	next := startSweepJob(t, srv.URL, smallGrid(fullBetas[:1]))
	if next.ID != "swp-000043" {
		t.Fatalf("next minted id = %s, want swp-000043", next.ID)
	}
	m := getMetrics(t, srv.URL)
	if m.Journal == nil || m.Journal.Replays != 1 {
		t.Fatalf("journal metrics = %+v, want 1 replay", m.Journal)
	}
}

// A grid entry whose spec no longer validates must be dropped with its
// journal entry removed, never wedging the boot.
func TestJournalReplayDropsInvalidEntries(t *testing.T) {
	journalDir := t.TempDir()
	jl, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Record("swp-000009", time.Now(), map[string]any{"axes": map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Journal: jl})
	if n := svc.ReplayJournal(); n != 0 {
		t.Fatalf("ReplayJournal resumed %d invalid jobs", n)
	}
	if jl.Len() != 0 {
		t.Fatal("invalid entry left in journal")
	}
}

// Determinism under the scheduler: a sweep whose points are being
// preempted by saturating interactive traffic must produce the same bytes
// as one running alone. Priorities decide WHEN points run, never what
// they compute.
func TestSweepBytesStableUnderInteractiveLoad(t *testing.T) {
	grid := acceptanceGrid()
	if raceEnabled {
		// Race instrumentation makes the dense eigensolves ~10× slower and
		// this test runs the sweep twice; shrink the grid so both runs fit
		// the poll deadline. The contract under test is unchanged.
		grid["axes"] = map[string]any{
			"game": []string{"doublewell", "asymwell"},
			"n":    []int{6, 8},
			"beta": map[string]any{"from": 0.5, "to": 4, "steps": 2},
		}
	}
	quiet := startServer(t, service.Config{})
	quietDoc := waitSweepDone(t, quiet.URL, startSweepJob(t, quiet.URL, grid).ID)
	quietRows := rowsJSON(t, quietDoc.Rows)

	// Two workers: the sweep's points and the interactive hammering fight
	// over a real scarcity. The hammer is a bounded burst, not an open
	// loop: interactive strictly beats sweep, so an unbounded hammer would
	// legitimately starve the sweep forever — exactly the priority policy
	// under test.
	loaded := startServer(t, service.Config{Workers: 2})
	created := startSweepJob(t, loaded.URL, grid)
	perWorker := 40
	if raceEnabled {
		perWorker = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct betas defeat the cache, so every request is a real
				// analysis competing for tokens. Errors are ignored here — a
				// test goroutine must not Fatal, and the assertions below only
				// need that some interactive work got through.
				body, _ := json.Marshal(map[string]any{
					"spec": map[string]any{"game": "doublewell", "n": 6, "c": 2, "delta1": 1},
					"beta": 0.1 + 0.001*float64(w*1000+i%997),
				})
				if resp, err := http.Post(loaded.URL+"/v1/analyze", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	doc := waitSweepDone(t, loaded.URL, created.ID)
	if doc.Status != "done" {
		t.Fatalf("loaded sweep ended %q: %s", doc.Status, doc.Error)
	}
	if got := rowsJSON(t, doc.Rows); got != quietRows {
		t.Fatal("interactive load changed sweep output bytes")
	}
	// The interactive traffic did run while the sweep held the pool — the
	// no-starvation claim, stated as throughput.
	m := getMetrics(t, loaded.URL)
	if m.Work.AnalysesPerformed <= uint64(quietDoc.Stats.Analyzed) {
		t.Fatalf("no interactive analyses completed under load: %d total", m.Work.AnalysesPerformed)
	}
}

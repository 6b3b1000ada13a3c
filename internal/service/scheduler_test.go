// In-package tests for the priority scheduler internals: class queues,
// preemption accounting, borrow headroom, the denied-requests counter,
// admission control and the retention-order fix.
package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A freed token must go to the waiting interactive acquirer even when a
// sweep acquirer has been queued longer, and the handoff counts as a
// preemption.
func TestPoolInteractiveBeatsQueuedSweep(t *testing.T) {
	p := NewPool(1)
	hold := make(chan struct{})
	running := make(chan struct{})
	go p.RunCtx(context.Background(), func() { close(running); <-hold })
	<-running

	var mu sync.Mutex
	var order []string
	record := func(class string) func() {
		return func() {
			mu.Lock()
			order = append(order, class)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	// The sweep point queues FIRST...
	go func() {
		defer wg.Done()
		p.RunClassCtx(context.Background(), ClassSweep, record("sweep"))
	}()
	waitFor(t, "sweep waiter", func() bool { return p.WaitingClass(ClassSweep) == 1 })
	// ...and the interactive request arrives second.
	go func() {
		defer wg.Done()
		p.RunCtx(context.Background(), record("interactive"))
	}()
	waitFor(t, "interactive waiter", func() bool { return p.WaitingClass(ClassInteractive) == 1 })

	close(hold)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "interactive" || order[1] != "sweep" {
		t.Fatalf("service order = %v, want [interactive sweep]", order)
	}
	if got := p.Preempted(); got != 1 {
		t.Fatalf("Preempted = %d, want 1", got)
	}
	if p.Waiting() != 0 || p.TokensInUse() != 0 {
		t.Fatalf("pool not drained: waiting=%d in_use=%d", p.Waiting(), p.TokensInUse())
	}
}

// Sweep-class borrows must leave one token of interactive headroom;
// interactive borrows may take the whole idle budget.
func TestPoolSweepBorrowHeadroom(t *testing.T) {
	p := NewPool(4)
	got, release := p.TryExtraClass(ClassSweep, 4)
	if got != 3 {
		t.Fatalf("sweep borrow on an idle 4-pool = %d, want 3 (one headroom token)", got)
	}
	release()
	got, release = p.TryExtra(4)
	if got != 4 {
		t.Fatalf("interactive borrow on an idle 4-pool = %d, want 4", got)
	}
	release()
	// With one token total, a sweep borrow gets nothing at all.
	p1 := NewPool(1)
	got, release = p1.TryExtraClass(ClassSweep, 1)
	if got != 0 {
		t.Fatalf("sweep borrow on a 1-pool = %d, want 0", got)
	}
	release()
	if p.TokensInUse() != 0 || p1.TokensInUse() != 0 {
		t.Fatal("release leaked tokens")
	}
}

// denied counts borrow REQUESTS that came up short, not the token
// shortfall; non-positive maxes are no-ops, not denials (the satellite
// clamp).
func TestPoolDeniedCountsRequests(t *testing.T) {
	p := NewPool(2)
	got, release := p.TryExtra(5) // short by 3, but ONE denied request
	if got != 2 {
		t.Fatalf("TryExtra(5) on a 2-pool = %d, want 2", got)
	}
	if d := p.ExtraDenied(); d != 1 {
		t.Fatalf("ExtraDenied after one short borrow = %d, want 1", d)
	}
	release()
	for _, max := range []int{0, -1, -7} {
		got, rel := p.TryExtra(max)
		if got != 0 {
			t.Fatalf("TryExtra(%d) = %d, want 0", max, got)
		}
		rel()
	}
	if d := p.ExtraDenied(); d != 1 {
		t.Fatalf("non-positive maxes counted as denials: %d", d)
	}
	if g := p.ExtraGranted(); g != 2 {
		t.Fatalf("ExtraGranted = %d, want 2", g)
	}
	if p.TokensInUse() != 0 {
		t.Fatal("release leaked tokens")
	}
}

// Over the MaxQueue threshold, work-submitting requests get 429 with a
// Retry-After estimate; probe endpoints stay open.
func TestAdmissionControl429(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1})

	hold := make(chan struct{})
	running := make(chan struct{})
	go s.pool.RunCtx(context.Background(), func() { close(running); <-hold })
	<-running
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.pool.RunCtx(context.Background(), func() {})
		}()
	}
	waitFor(t, "two queued waiters", func() bool { return s.pool.Waiting() == 2 })

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := `{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1}`
	for _, path := range []string{"/v1/analyze", "/v1/analyze/batch", "/v1/simulate", "/v1/sweeps"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 429 {
			t.Fatalf("POST %s over threshold = %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("POST %s: no Retry-After header", path)
		} else if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second {
			t.Fatalf("POST %s: Retry-After %q not a positive integer", path, ra)
		}
	}
	// Status endpoints are never gated.
	for _, path := range []string{"/healthz", "/metrics", "/v1/sweeps"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s under overload = %d, want 200", path, resp.StatusCode)
		}
	}
	if got := s.admissionRejected.Load(); got != 4 {
		t.Fatalf("admissionRejected = %d, want 4", got)
	}

	close(hold)
	wg.Wait()
	waitFor(t, "queue drain", func() bool { return s.pool.Waiting() == 0 })
	// Below the threshold the same request is admitted (and is a fine 200).
	resp, err := srv.Client().Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST after drain = %d, want 200", resp.StatusCode)
	}
}

func TestSweepSeqOf(t *testing.T) {
	cases := map[string]uint64{
		"swp-000001":  1,
		"swp-999999":  999999,
		"swp-1000000": 1000000,
		"no-digits":   0,
		"plain":       0,
	}
	for id, want := range cases {
		if got := sweepSeqOf(id); got != want {
			t.Fatalf("sweepSeqOf(%q) = %d, want %d", id, got, want)
		}
	}
}

// Retention must evict oldest-first by creation, even across the
// swp-999999 → swp-1000000 boundary where lexicographic id order inverts.
func TestPruneSweepsNumericOrder(t *testing.T) {
	s := New(Config{})
	base := time.Now().Add(-time.Hour)
	total := maxRetainedSweeps + 12
	first := 999_995 // ids straddle the six-digit rollover
	var ids []string
	s.sweepMu.Lock()
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("swp-%06d", first+i)
		ids = append(ids, id)
		s.sweeps[id] = &sweepJob{
			id:      id,
			created: base.Add(time.Duration(i) * time.Second),
			status:  "done",
		}
	}
	s.pruneSweepsLocked()
	if len(s.sweeps) != maxRetainedSweeps {
		s.sweepMu.Unlock()
		t.Fatalf("retained %d jobs, want %d", len(s.sweeps), maxRetainedSweeps)
	}
	// Exactly the newest maxRetainedSweeps jobs survive.
	for i, id := range ids {
		_, ok := s.sweeps[id]
		if wantKept := i >= total-maxRetainedSweeps; ok != wantKept {
			s.sweepMu.Unlock()
			t.Fatalf("job %s (index %d): kept=%v, want %v", id, i, ok, wantKept)
		}
	}
	s.sweepMu.Unlock()

	// Running jobs are never pruned, whatever their age.
	s2 := New(Config{})
	s2.sweepMu.Lock()
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("swp-%06d", first+i)
		s2.sweeps[id] = &sweepJob{
			id:      id,
			created: base.Add(time.Duration(i) * time.Second),
			status:  "running",
		}
	}
	s2.pruneSweepsLocked()
	if len(s2.sweeps) != total {
		s2.sweepMu.Unlock()
		t.Fatalf("pruned running jobs: %d left of %d", len(s2.sweeps), total)
	}
	s2.sweepMu.Unlock()
}

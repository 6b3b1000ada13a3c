package service

import (
	"context"
	"sync"
	"testing"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

func TestCanonicalKeySpecMatchesMaterializedTable(t *testing.T) {
	// A family built from a spec and the same game shipped as an explicit
	// table document must map to one cache key.
	s := spec.Spec{Game: "doublewell", N: 4, C: 1, Delta1: 1}
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	doc := serialize.NewGameDoc(g, "")
	tg, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{}
	k1 := store.CanonicalKey(g, 1.5, opts)
	k2 := store.CanonicalKey(tg, 1.5, opts)
	if k1 != k2 {
		t.Fatalf("spec-built and table-built keys differ: %s vs %s", k1, k2)
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	g, _ := game.NewCoordination2x2(3, 2, 0, 0)
	base := store.CanonicalKey(g, 1, core.Options{})
	if k := store.CanonicalKey(g, 1.0000001, core.Options{}); k == base {
		t.Fatal("key must depend on beta")
	}
	if k := store.CanonicalKey(g, 1, core.Options{Eps: 0.1}); k == base {
		t.Fatal("key must depend on eps")
	}
	g2, _ := game.NewCoordination2x2(3, 2.5, 0, 0)
	if k := store.CanonicalKey(g2, 1, core.Options{}); k == base {
		t.Fatal("key must depend on the payoff tables")
	}
	// Defaults normalize: zero options and explicit defaults are one key.
	if k := store.CanonicalKey(g, 1, core.Options{Eps: 0.25, MaxT: 1 << 62}); k != base {
		t.Fatal("explicitly spelled default options must hash like the zero value")
	}
}

func TestCacheSingleflight(t *testing.T) {
	// Many concurrent misses for one key must run the analysis exactly
	// once: the first caller blocks inside fn on a gate while the rest
	// join the in-flight call.
	c := NewCache(4)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var calls int
	rep := &core.Report{MixingTime: 42}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do("k", func() (*core.Report, error) {
			calls++
			close(entered)
			<-gate
			return rep, nil
		})
	}()
	<-entered

	const waiters = 8
	got := make([]*core.Report, waiters)
	cached := make([]bool, waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], cached[i], _ = c.Do("k", func() (*core.Report, error) {
				t.Error("second fn must never run")
				return nil, nil
			})
		}(i)
	}
	// Release the first caller once all waiters are issued; the waiters
	// either joined in flight or (if scheduled late) hit the cache — both
	// count as cached and neither runs fn.
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("analysis ran %d times, want 1", calls)
	}
	for i := 0; i < waiters; i++ {
		if got[i] != rep {
			t.Fatalf("waiter %d got %+v", i, got[i])
		}
		if !cached[i] {
			t.Fatalf("waiter %d not marked cached", i)
		}
	}
	m := c.Metrics()
	if m.Misses != 1 {
		t.Fatalf("misses = %d, want 1", m.Misses)
	}
	if m.Hits+m.SingleflightWaits != waiters {
		t.Fatalf("hits+waits = %d, want %d", m.Hits+m.SingleflightWaits, waiters)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(k string) { c.Do(k, func() (*core.Report, error) { return &core.Report{}, nil }) }
	mk("a")
	mk("b")
	mk("a") // refresh a; b is now oldest
	mk("c") // evicts b
	if _, cached, _ := c.Do("a", func() (*core.Report, error) { return &core.Report{}, nil }); !cached {
		t.Fatal("a must still be cached")
	}
	if _, cached, _ := c.Do("b", func() (*core.Report, error) { return &core.Report{}, nil }); cached {
		t.Fatal("b must have been evicted")
	}
	if m := c.Metrics(); m.Evictions == 0 {
		t.Fatal("eviction counter must advance")
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(2)
	calls := 0
	fail := func() (*core.Report, error) { calls++; return nil, errAnalysis }
	if _, _, err := c.Do("k", fail); err == nil {
		t.Fatal("expected error")
	}
	if _, cached, _ := c.Do("k", fail); cached {
		t.Fatal("errors must not be cached")
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestAnalyzeRejectsOverLimitRequests(t *testing.T) {
	svc := New(Config{Limits: spec.Limits{
		MaxPlayers: 4, MaxStrategies: 4, MaxProfiles: 16, MaxBeta: 10, MaxSteps: 1000,
	}})
	cases := map[string]AnalyzeRequest{
		"no-game":      {Beta: 1},
		"both-sources": {Spec: &spec.Spec{Game: "coordination"}, Game: &serialize.GameDoc{}, Beta: 1},
		"beta-cap":     {Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: 100},
		"neg-beta":     {Spec: &spec.Spec{Game: "coordination", Delta0: 3, Delta1: 2}, Beta: -1},
		"too-many-players": {
			Spec: &spec.Spec{Game: "doublewell", N: 8, C: 2, Delta1: 1}, Beta: 1,
		},
		"profile-blowup": {
			Spec: &spec.Spec{Game: "random", N: 3, M: 4, Seed: 1}, Beta: 1,
		},
		"bad-doc-sizes": {
			Game: &serialize.GameDoc{Sizes: []int{0}, Utils: [][]float64{{}}}, Beta: 1,
		},
	}
	for name, req := range cases {
		if _, err := svc.analyzeOne(context.Background(), req); err == nil {
			t.Errorf("%s: expected rejection", name)
		}
	}
	if n := svc.Metrics().Work.AnalysesPerformed; n != 0 {
		t.Fatalf("rejected requests must not run analyses, got %d", n)
	}
}

func TestAnalyzeRejectsEagerBlowupBeforeConstruction(t *testing.T) {
	// random n=10 m=8 would eagerly tabulate 8^10 ≈ 1e9 profiles at Build
	// time; the limits must reject it before any allocation happens.
	svc := New(Config{})
	_, err := svc.analyzeOne(context.Background(), AnalyzeRequest{
		Spec: &spec.Spec{Game: "random", N: 10, M: 8, Seed: 1}, Beta: 1,
	})
	if err == nil {
		t.Fatal("eager profile-space blowup must be rejected pre-build")
	}
}

func TestAnalyzeConvertsConstructorPanicsToErrors(t *testing.T) {
	// Well-formed requests whose constructors panic (ring needs n >= 3,
	// random potentials need scale > 0) must come back as errors, not
	// crash the serving goroutine.
	svc := New(Config{})
	cases := map[string]AnalyzeRequest{
		"tiny-ring": {Spec: &spec.Spec{Game: "ising", Graph: "ring", N: 2, Delta1: 1}, Beta: 1},
		"neg-scale": {Spec: &spec.Spec{Game: "random", N: 3, M: 2, Scale: -1, Seed: 1}, Beta: 1},
	}
	for name, req := range cases {
		if _, err := svc.analyzeOne(context.Background(), req); err == nil {
			t.Errorf("%s: expected an error, not a panic", name)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	running := make(chan struct{}, 16)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(func() {
				running <- struct{}{}
				<-gate
			})
		}()
	}
	// Exactly two tasks can be inside Run at once.
	<-running
	<-running
	if got := p.InFlight(); got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}
	select {
	case <-running:
		t.Fatal("third task entered a 2-worker pool")
	default:
	}
	close(gate)
	wg.Wait()
	if got := p.Completed(); got != 6 {
		t.Fatalf("completed = %d, want 6", got)
	}
}

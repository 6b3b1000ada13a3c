package cluster

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"logitdyn/internal/serialize"
	"logitdyn/internal/store"
)

// testKey derives a syntactically valid 64-hex key from an index.
func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("cluster-test-key-%d", i)))
	return fmt.Sprintf("%x", sum)
}

func testDoc(beta float64) serialize.ReportDoc {
	return serialize.ReportDoc{
		Version:     serialize.Version,
		Game:        "test",
		Beta:        serialize.Float(beta),
		NumProfiles: 4,
		Backend:     "dense",
		MixingTime:  17,
	}
}

// Placement must be a pure function of (shard names, key): two rings built
// from the same names — in a different process life, here simulated by a
// second construction — agree on every key's owner.
func TestRingPlacementDeterministicAcrossConstructions(t *testing.T) {
	names := []string{"/data/shard-a", "/data/shard-b", "/data/shard-c"}
	mk := func() *Ring {
		shards := make([]ReportStore, len(names))
		for i := range shards {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = st
		}
		r, err := NewRing(names, shards)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := mk(), mk()
	for i := 0; i < 500; i++ {
		k := testKey(i)
		if a, b := r1.ShardFor(k), r2.ShardFor(k); a != b {
			t.Fatalf("key %d routed to shard %d then %d across constructions", i, a, b)
		}
	}
}

// Adding a shard must re-route ONLY the keys the new shard now owns:
// every key either stays where it was or moves to the new shard — never
// between old shards — and the moved fraction is in the 1/N neighborhood.
func TestRingShardAddReroutesPredictably(t *testing.T) {
	names3 := []string{"s0", "s1", "s2"}
	names4 := append(append([]string(nil), names3...), "s3")
	open := func(n int) []ReportStore {
		shards := make([]ReportStore, n)
		for i := range shards {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = st
		}
		return shards
	}
	r3, err := NewRing(names3, open(3))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRing(names4, open(4))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		k := testKey(i)
		before, after := r3.ShardFor(k), r4.ShardFor(k)
		if before != after {
			if after != 3 {
				t.Fatalf("key %d moved between OLD shards %d -> %d on shard add", i, before, after)
			}
			moved++
		}
	}
	// The new shard should own ~1/4 of the space; allow a generous band
	// (the 64-points-per-shard circle is only statistically even).
	frac := float64(moved) / keys
	if math.Abs(frac-0.25) > 0.12 {
		t.Fatalf("shard add moved %.1f%% of keys, want ~25%%", 100*frac)
	}
	// And the 3-shard split itself should be roughly balanced.
	counts := make([]int, 3)
	for i := 0; i < keys; i++ {
		counts[r3.ShardFor(testKey(i))]++
	}
	for s, c := range counts {
		if f := float64(c) / keys; f < 0.12 || f > 0.55 {
			t.Fatalf("shard %d owns %.1f%% of keys — circle badly unbalanced: %v", s, 100*f, counts)
		}
	}
}

// The ring is a working ReportStore: entries round-trip through their
// owning shard, land on exactly one shard, and survive "restarts" (a new
// ring over the same directories).
func TestRingStoreRoundTripAndReopen(t *testing.T) {
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "a"), filepath.Join(base, "b"), filepath.Join(base, "c")}
	r, err := OpenRing(dirs, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := r.Put(testKey(i), testDoc(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		doc, ok := r.Get(testKey(i))
		if !ok || doc.Beta != serialize.Float(float64(i)) {
			t.Fatalf("key %d: Get = (%v, %v)", i, doc.Beta, ok)
		}
	}
	// Each key lives on exactly its owner shard, and the keys spread.
	populated := 0
	total := 0
	for s := 0; s < r.Shards(); s++ {
		entries, err := r.Shard(s).Scan("")
		if err != nil {
			t.Fatal(err)
		}
		total += len(entries)
		if len(entries) > 0 {
			populated++
		}
		for _, e := range entries {
			if r.ShardFor(e.Key) != s {
				t.Fatalf("key %s on shard %d but owned by %d", e.Key, s, r.ShardFor(e.Key))
			}
		}
	}
	if total != n {
		t.Fatalf("shards hold %d entries, want %d", total, n)
	}
	if populated < 2 {
		t.Fatalf("only %d of 3 shards populated for %d keys", populated, n)
	}
	if m := r.Metrics(); m.Entries != n || m.Puts != n {
		t.Fatalf("ring metrics: %+v", m)
	}
	all, err := r.Scan("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("ring Scan = %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatal("ring Scan not merged in key order")
		}
	}

	// Restart: a fresh ring over the same directories serves everything.
	r2, err := OpenRing(dirs, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, ok := r2.Get(testKey(i)); !ok {
			t.Fatalf("reopened ring lost key %d", i)
		}
	}
	// Delete reaches the owner wherever the key is.
	if err := r2.Delete(testKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Get(testKey(0)); ok {
		t.Fatal("deleted key still served")
	}
}

func TestRingScrubCoversAllShards(t *testing.T) {
	base := t.TempDir()
	r, err := OpenRing([]string{filepath.Join(base, "x"), filepath.Join(base, "y")}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Put(testKey(i), testDoc(1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 10 || res.Damaged != 0 {
		t.Fatalf("ring Scrub = %+v", res)
	}
}

func TestRingRejectsBadConfigs(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names  []string
		shards []ReportStore
	}{
		{nil, nil},
		{[]string{"a"}, []ReportStore{st, st}},
		{[]string{"a", "a"}, []ReportStore{st, st}},
		{[]string{""}, []ReportStore{st}},
		{[]string{"a"}, []ReportStore{nil}},
	}
	for i, c := range cases {
		if _, err := NewRing(c.names, c.shards); err == nil {
			t.Fatalf("case %d: NewRing accepted a bad config", i)
		}
	}
}

func TestOpenFromFlags(t *testing.T) {
	// No store, no peers: nil interface.
	st, err := OpenFromFlags("", store.Options{}, "", 0)
	if err != nil || st != nil {
		t.Fatalf("empty flags = (%v, %v)", st, err)
	}
	// Peers without a local store must be refused.
	if _, err := OpenFromFlags("", store.Options{}, "http://localhost:1", 0); err == nil {
		t.Fatal("peers without a store accepted")
	}
	// One dir: a plain store. Several: a ring.
	base := t.TempDir()
	one, err := OpenFromFlags(filepath.Join(base, "one"), store.Options{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := one.(*store.Store); !ok {
		t.Fatalf("single dir opened a %T, want *store.Store", one)
	}
	many, err := OpenFromFlags(
		filepath.Join(base, "a")+", "+filepath.Join(base, "b"), store.Options{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ring, ok := many.(*Ring)
	if !ok {
		t.Fatalf("two dirs opened a %T, want *Ring", many)
	}
	if ring.Shards() != 2 {
		t.Fatalf("ring has %d shards", ring.Shards())
	}
	// Store + peers: a Replicated wrapping the store.
	rep, err := OpenFromFlags(filepath.Join(base, "c"), store.Options{}, "http://localhost:9,http://localhost:10", 0)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rep.(*Replicated)
	if !ok {
		t.Fatalf("store+peers opened a %T, want *Replicated", rep)
	}
	if _, ok := r.LocalStore().(*store.Store); !ok {
		t.Fatalf("Replicated local tier is %T", r.LocalStore())
	}
	// A bad peer URL fails fast, not at first fetch.
	if _, err := OpenFromFlags(filepath.Join(base, "d"), store.Options{}, "not a url", 0); err == nil {
		t.Fatal("invalid peer URL accepted")
	}
}

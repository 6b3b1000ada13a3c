package sweep

import (
	"context"
	"path/filepath"
	"testing"

	"logitdyn/internal/cluster"
	"logitdyn/internal/store"
)

// The shard layout decides where entries live, never what they say: the
// same grid swept against a plain single-directory store and against a
// 3-shard consistent-hash ring must produce byte-identical aggregate
// tables, and a warm rerun through the ring re-analyzes nothing.
func TestSweepTableByteIdenticalAcrossShardLayouts(t *testing.T) {
	if raceEnabled {
		t.Skip("pure determinism check over many analyses; too slow under -race, no concurrency coverage lost")
	}
	g := testGrid()

	plain, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resPlain, statsPlain := runAll(t, plain, g)

	base := t.TempDir()
	dirs := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1"), filepath.Join(base, "s2")}
	ring, err := cluster.OpenRing(dirs, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runRing := func() (*Result, RunStats) {
		r := &Runner{Eval: DirectEvalScratch(ring, nil, nil), Workers: 4}
		res, stats, err := r.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	resRing, statsRing := runRing()
	if statsRing.Analyzed != statsPlain.Analyzed {
		t.Fatalf("ring run analyzed %d, plain %d", statsRing.Analyzed, statsPlain.Analyzed)
	}

	jPlain, cPlain := encodeBoth(t, resPlain)
	jRing, cRing := encodeBoth(t, resRing)
	if jPlain != jRing {
		t.Fatal("JSON table differs between 1-shard and 3-shard layouts")
	}
	if cPlain != cRing {
		t.Fatal("CSV table differs between 1-shard and 3-shard layouts")
	}

	// The ring actually sharded: the entries landed on more than one
	// directory, and the total matches the plain store's.
	populated, total := 0, 0
	for i := 0; i < ring.Shards(); i++ {
		entries, err := ring.Shard(i).Scan("")
		if err != nil {
			t.Fatal(err)
		}
		total += len(entries)
		if len(entries) > 0 {
			populated++
		}
	}
	if total != plain.Len() {
		t.Fatalf("ring holds %d entries, plain store %d", total, plain.Len())
	}
	if populated < 2 {
		t.Fatalf("all %d entries landed on one shard", total)
	}

	// Warm rerun through the ring: zero re-analyses, same bytes — resumed
	// runs work across sharded layouts exactly like single stores.
	resWarm, statsWarm := runRing()
	if statsWarm.Analyzed != 0 {
		t.Fatalf("warm ring rerun analyzed %d points", statsWarm.Analyzed)
	}
	if statsWarm.StoreHits != statsWarm.Unique {
		t.Fatalf("warm rerun store hits %d, want %d", statsWarm.StoreHits, statsWarm.Unique)
	}
	jWarm, _ := encodeBoth(t, resWarm)
	if jWarm != jPlain {
		t.Fatal("warm ring rerun changed the table bytes")
	}
}

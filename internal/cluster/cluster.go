// Package cluster turns K hosts' content-addressed report stores into one
// shared, restart-proof result space. It is almost entirely a routing
// layer, because the store's canonical-game-hash keys already make
// entries location-independent and checksummed fail-closed:
//
//   - ReportStore is the small interface seam the serving layer, the sweep
//     engine and the experiment executor consume instead of the concrete
//     *store.Store, so "where results live" became a config decision.
//   - Ring is a consistent-hash router over N ReportStore shards (local
//     directories in practice) with deterministic key→shard placement:
//     the same key lands on the same shard across restarts, and adding a
//     shard re-routes only the keys the new shard now owns.
//   - PeerStore is the HTTP client for a sibling daemon's
//     /v1/peer/reports/{key} surface; fetched entries are checksum
//     re-verified on receipt, fail-closed, exactly like local disk reads.
//   - Replicated composes a local ReportStore with peers: a local miss is
//     answered by a sibling's store — under a bounded timeout, with
//     single-flight per key — before anyone recomputes, and fetched hot
//     keys are replicated read-through into the local shard.
//
// Results are byte-identical whatever the shard layout or peer topology,
// because every tier serves the same checksummed entry bytes under the
// same canonical key; the layout only decides who pays the analysis.
package cluster

import (
	"context"
	"errors"

	"logitdyn/internal/serialize"
	"logitdyn/internal/store"
)

// errNotScrubable marks a store arrangement whose entries this process
// cannot read off disk and therefore cannot integrity-scrub.
var errNotScrubable = errors.New("cluster: store does not support scrubbing")

// ReportStore is the seam between "code that needs results persisted" and
// "whatever arrangement of disks and daemons persists them". *store.Store
// is the base implementation; Ring and Replicated compose it. All methods
// must be safe for concurrent use.
type ReportStore interface {
	// Get returns the stored report for key; a missing or damaged entry is
	// (zero, false), never an error — the caller's fallback is recompute.
	Get(key string) (serialize.ReportDoc, bool)
	// Put persists the report under key. Failures cost durability only.
	Put(key string, doc serialize.ReportDoc) error
	// Delete removes an entry; missing entries are not an error.
	Delete(key string) error
	// Scan lists entries by key prefix, sorted by key.
	Scan(prefix string) ([]store.EntryInfo, error)
	// Metrics snapshots the store's counters (aggregated over shards for
	// composite stores).
	Metrics() store.Metrics
}

// CtxGetter is the optional context-aware read extension of ReportStore.
// Stores whose Get may block on the network (Replicated's peer fetches)
// implement it so a cancelled request or sweep stops its fetch instead of
// riding out the full peer timeout; purely local stores do not bother —
// disk reads are fast and ctx plumbing there would be noise.
type CtxGetter interface {
	GetCtx(ctx context.Context, key string) (serialize.ReportDoc, bool)
}

// GetCtx reads key from rs, threading ctx through stores that support
// cancellation and falling back to the plain Get everywhere else — the
// compat shim that lets call sites pass their context without every
// ReportStore implementation growing a ctx parameter.
func GetCtx(ctx context.Context, rs ReportStore, key string) (serialize.ReportDoc, bool) {
	if cg, ok := rs.(CtxGetter); ok {
		return cg.GetCtx(ctx, key)
	}
	return rs.Get(key)
}

// Scrubber is the optional integrity-scrub extension of ReportStore:
// every store whose entries this process can read off disk implements it
// (plain stores, rings over local shards); purely remote arrangements do
// not.
type Scrubber interface {
	Scrub() (store.ScrubResult, error)
}

// Replicated: a local ReportStore backed by sibling daemons. A local miss
// is answered out of a peer's store — bounded timeout, single-flight per
// key — before anyone recomputes, and a fetched entry is written through
// into the local shard so the next read is local.
package cluster

import (
	"context"
	"sync"
	"sync/atomic"

	"logitdyn/internal/serialize"
	"logitdyn/internal/store"
)

// Replicated composes a local ReportStore with read-only peers. Reads try
// local first, then the peers; writes, deletes, scans and scrubs are
// local-only — a daemon never mutates a sibling's disk.
type Replicated struct {
	local ReportStore
	peers []*PeerStore

	mu       sync.Mutex
	inflight map[string]*peerCall

	replications, replicationErrors atomic.Uint64
	sharedWaits                     atomic.Uint64
}

// peerCall is one in-flight peer fetch; late callers for the same key wait
// on done and share the result instead of stacking N identical fetches on
// an already-slow peer.
type peerCall struct {
	done chan struct{}
	doc  serialize.ReportDoc
	ok   bool
}

// NewReplicated wraps local with peer fallback. local must be non-nil; an
// empty peer list is allowed and degrades to a pass-through.
func NewReplicated(local ReportStore, peers []*PeerStore) *Replicated {
	return &Replicated{
		local:    local,
		peers:    append([]*PeerStore(nil), peers...),
		inflight: make(map[string]*peerCall),
	}
}

// LocalStore exposes the local tier. The daemon's peer-serving endpoint
// reads through this — serving peers out of the Replicated view would let
// two empty daemons ping-pong a miss between each other forever.
func (r *Replicated) LocalStore() ReportStore { return r.local }

// Get returns key from the local store, or from the first peer that has a
// verifiable copy. A peer hit is replicated into the local store before
// returning, so each key is fetched over the network at most ~once per
// daemon lifetime. Peer failures of any kind degrade to a miss.
func (r *Replicated) Get(key string) (serialize.ReportDoc, bool) {
	return r.GetCtx(context.Background(), key)
}

// GetCtx is Get under the caller's context: a cancelled request or sweep
// point stops waiting — and, when it initiated the fetch, aborts the
// in-flight peer round-trip — instead of holding its goroutine (and the
// singleflight slot behind it) for the full peer timeout. Local reads
// ignore ctx; disk is never the slow tier here.
func (r *Replicated) GetCtx(ctx context.Context, key string) (serialize.ReportDoc, bool) {
	if doc, ok := r.local.Get(key); ok {
		return doc, true
	}
	if len(r.peers) == 0 || ctx.Err() != nil {
		return serialize.ReportDoc{}, false
	}
	return r.fetchShared(ctx, key)
}

// fetchShared collapses concurrent peer fetches for the same key into one.
// The initiating caller's ctx drives the network round-trip; a follower
// that is cancelled while waiting detaches with a miss (its own fallback —
// recompute — is moot anyway, it is being torn down). The documented cost
// of the collapse is that an initiator cancelled mid-fetch fails the fetch
// for any still-live followers too; they degrade to an ordinary recompute.
func (r *Replicated) fetchShared(ctx context.Context, key string) (serialize.ReportDoc, bool) {
	r.mu.Lock()
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		r.sharedWaits.Add(1)
		select {
		case <-c.done:
			return c.doc, c.ok
		case <-ctx.Done():
			return serialize.ReportDoc{}, false
		}
	}
	c := &peerCall{done: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	c.doc, c.ok = r.fetchFromPeers(ctx, key)
	if c.ok {
		// Read-through replication: the local shard absorbs the fetched
		// entry so this network round-trip is paid once, not per read.
		if err := r.local.Put(key, c.doc); err != nil {
			r.replicationErrors.Add(1)
		} else {
			r.replications.Add(1)
		}
	}

	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)
	return c.doc, c.ok
}

// fetchFromPeers tries each peer once, starting at a key-determined offset
// so distinct keys spread load across siblings instead of hammering
// peers[0]. A cancelled ctx stops the rotation between peers and aborts
// the in-flight request inside one.
func (r *Replicated) fetchFromPeers(ctx context.Context, key string) (serialize.ReportDoc, bool) {
	start := int(keyHash(key) % uint64(len(r.peers)))
	for i := 0; i < len(r.peers); i++ {
		if ctx.Err() != nil {
			return serialize.ReportDoc{}, false
		}
		p := r.peers[(start+i)%len(r.peers)]
		if doc, ok := p.Fetch(ctx, key); ok {
			return doc, true
		}
	}
	return serialize.ReportDoc{}, false
}

// Put writes to the local store only; peers learn the key when they ask.
func (r *Replicated) Put(key string, doc serialize.ReportDoc) error {
	return r.local.Put(key, doc)
}

// Delete removes key locally. Peers are not contacted: a replicated key
// deleted here may flow back on the next local miss, which is the
// documented cost of treating peers as caches of record rather than
// coordinating deletion across daemons.
func (r *Replicated) Delete(key string) error { return r.local.Delete(key) }

// Scan lists the local store's entries.
func (r *Replicated) Scan(prefix string) ([]store.EntryInfo, error) {
	return r.local.Scan(prefix)
}

// Metrics snapshots the local store's counters; peer-tier counters are in
// PeerMetrics, a separate family, so "local store behaviour" dashboards
// don't shift meaning when peering is enabled.
func (r *Replicated) Metrics() store.Metrics { return r.local.Metrics() }

// Scrub scrubs the local store. Peers scrub their own disks.
func (r *Replicated) Scrub() (store.ScrubResult, error) {
	sc, ok := r.local.(Scrubber)
	if !ok {
		return store.ScrubResult{}, errNotScrubable
	}
	return sc.Scrub()
}

// PeerMetrics aggregates the peer tier: per-peer fetch counters plus this
// daemon's replication totals.
type PeerMetrics struct {
	Peers []PeerStoreMetrics `json:"peers"`
	// Fetches..CorruptRejected sum the per-peer counters.
	Fetches         uint64 `json:"fetches"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Errors          uint64 `json:"errors"`
	CorruptRejected uint64 `json:"corrupt_rejected"`
	// Replications counts peer hits written through into the local store;
	// ReplicationErrors the write-throughs that failed (durability loss
	// only — the fetched doc was still served).
	Replications      uint64 `json:"replications"`
	ReplicationErrors uint64 `json:"replication_errors"`
	// SingleflightShared counts Gets that waited on another caller's
	// in-flight fetch instead of issuing their own.
	SingleflightShared uint64 `json:"singleflight_shared"`
}

// PeerMetrics snapshots the peer tier.
func (r *Replicated) PeerMetrics() PeerMetrics {
	m := PeerMetrics{
		Replications:       r.replications.Load(),
		ReplicationErrors:  r.replicationErrors.Load(),
		SingleflightShared: r.sharedWaits.Load(),
	}
	for _, p := range r.peers {
		pm := p.Metrics()
		m.Peers = append(m.Peers, pm)
		m.Fetches += pm.Fetches
		m.Hits += pm.Hits
		m.Misses += pm.Misses
		m.Errors += pm.Errors
		m.CorruptRejected += pm.CorruptRejected
	}
	return m
}

// Prometheus text exposition for /metrics?format=prometheus: the same
// counters the JSON document carries, rewritten as logitdyn_-prefixed
// families a stock Prometheus scraper ingests without any client library.
// Every value is read from the same snapshots as the JSON path, so the two
// formats never disagree about what happened.
package service

import (
	"net/http"
	"strings"

	"logitdyn/internal/obs"
)

func (s *Service) writeProm(w http.ResponseWriter) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewProm(w)

	p.Gauge("logitdyn_uptime_seconds", "Seconds since the service started.", nil, m.UptimeSeconds)

	reqs := []struct {
		ep string
		n  uint64
	}{
		{"analyze", m.Requests.Analyze},
		{"batch", m.Requests.Batch},
		{"simulate", m.Requests.Simulate},
		{"sweeps", m.Requests.Sweeps},
		{"traces", m.Requests.Traces},
		{"healthz", m.Requests.Healthz},
		{"metrics", m.Requests.Metrics},
		{"peer", m.Requests.Peer},
		{"admin", m.Requests.Admin},
	}
	for _, r := range reqs {
		p.Counter("logitdyn_requests_total", "Requests served, by endpoint.",
			[]obs.Label{{Name: "endpoint", Value: r.ep}}, float64(r.n))
	}

	cacheHelp := "In-memory report cache events, by kind."
	p.Counter("logitdyn_cache_events_total", cacheHelp, []obs.Label{{Name: "kind", Value: "hit"}}, float64(m.Cache.Hits))
	p.Counter("logitdyn_cache_events_total", cacheHelp, []obs.Label{{Name: "kind", Value: "miss"}}, float64(m.Cache.Misses))
	p.Counter("logitdyn_cache_events_total", cacheHelp, []obs.Label{{Name: "kind", Value: "eviction"}}, float64(m.Cache.Evictions))
	p.Counter("logitdyn_cache_events_total", cacheHelp, []obs.Label{{Name: "kind", Value: "singleflight_wait"}}, float64(m.Cache.SingleflightWaits))
	p.Gauge("logitdyn_cache_size", "Reports held in the in-memory cache.", nil, float64(m.Cache.Size))
	p.Gauge("logitdyn_cache_capacity", "In-memory cache capacity.", nil, float64(m.Cache.Capacity))

	if m.Store != nil {
		tierHelp := "Persistent store tier outcomes for memory-cache misses."
		p.Counter("logitdyn_store_tier_total", tierHelp, []obs.Label{{Name: "kind", Value: "hit"}}, float64(m.Store.Hits))
		p.Counter("logitdyn_store_tier_total", tierHelp, []obs.Label{{Name: "kind", Value: "miss"}}, float64(m.Store.Misses))
		st := m.Store.Store
		stHelp := "Persistent report-store events, by kind."
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "hit"}}, float64(st.Hits))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "miss"}}, float64(st.Misses))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "put"}}, float64(st.Puts))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "write_error"}}, float64(st.WriteErrors))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "read_error"}}, float64(st.ReadErrors))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "eviction"}}, float64(st.Evictions))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "eviction_lru"}}, float64(st.EvictionsLRU))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "eviction_age"}}, float64(st.EvictionsAge))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "corrupt_dropped"}}, float64(st.CorruptDropped))
		p.Counter("logitdyn_store_events_total", stHelp, []obs.Label{{Name: "kind", Value: "scrub_run"}}, float64(st.ScrubsRun))
		p.Gauge("logitdyn_store_entries", "Entries in the persistent store.", nil, float64(st.Entries))
		p.Gauge("logitdyn_store_bytes", "Bytes in the persistent store.", nil, float64(st.SizeBytes))
		for _, op := range []string{"get", "put", "evict", "scrub"} {
			if snap, ok := st.Ops[op]; ok {
				p.Histogram("logitdyn_store_op_duration_seconds",
					"Persistent-store operation latency, by op.",
					[]obs.Label{{Name: "op", Value: op}}, snap)
			}
		}
		srvHelp := "Peer-surface fetches served to sibling daemons, by result."
		p.Counter("logitdyn_peer_serve_total", srvHelp, []obs.Label{{Name: "result", Value: "hit"}}, float64(m.Store.ServedToPeers))
		p.Counter("logitdyn_peer_serve_total", srvHelp, []obs.Label{{Name: "result", Value: "miss"}}, float64(m.Store.ServedToPeersMissed))
		p.Counter("logitdyn_admin_evicted_total", "Store entries deleted through the admin evict endpoint.", nil, float64(m.Store.AdminEvicted))
		if pm := m.Store.Peer; pm != nil {
			fetchHelp := "Outbound peer entry fetches, by result."
			p.Counter("logitdyn_peer_fetch_total", fetchHelp, []obs.Label{{Name: "result", Value: "hit"}}, float64(pm.Hits))
			p.Counter("logitdyn_peer_fetch_total", fetchHelp, []obs.Label{{Name: "result", Value: "miss"}}, float64(pm.Misses))
			p.Counter("logitdyn_peer_fetch_total", fetchHelp, []obs.Label{{Name: "result", Value: "error"}}, float64(pm.Errors))
			p.Counter("logitdyn_peer_fetch_total", fetchHelp, []obs.Label{{Name: "result", Value: "corrupt"}}, float64(pm.CorruptRejected))
			p.Counter("logitdyn_peer_replications_total", "Peer hits written through into the local store.", nil, float64(pm.Replications))
			p.Counter("logitdyn_peer_replication_errors_total", "Peer-hit write-throughs that failed.", nil, float64(pm.ReplicationErrors))
			p.Counter("logitdyn_peer_singleflight_shared_total", "Gets that joined another caller's in-flight peer fetch.", nil, float64(pm.SingleflightShared))
		}
	}

	backHelp := "Completed analyses, by linear-algebra backend."
	p.Counter("logitdyn_analyses_total", backHelp, []obs.Label{{Name: "backend", Value: "dense"}}, float64(m.Work.AnalysesByBackend.Dense))
	p.Counter("logitdyn_analyses_total", backHelp, []obs.Label{{Name: "backend", Value: "sparse"}}, float64(m.Work.AnalysesByBackend.Sparse))
	p.Counter("logitdyn_analyses_total", backHelp, []obs.Label{{Name: "backend", Value: "matfree"}}, float64(m.Work.AnalysesByBackend.MatFree))
	p.Counter("logitdyn_analyses_failed_total", "Analysis attempts that errored.", nil, float64(m.Work.AnalysesFailed))
	p.Counter("logitdyn_simulations_total", "Completed simulation requests.", nil, float64(m.Work.Simulations))

	p.Gauge("logitdyn_workers", "Worker-token budget.", nil, float64(m.Work.Workers))
	p.Gauge("logitdyn_in_flight", "Requests currently holding a worker token.", nil, float64(m.Work.InFlight))
	p.Gauge("logitdyn_queue_depth", "Requests blocked waiting for a worker token.", nil, float64(m.Work.QueueDepth))
	p.Gauge("logitdyn_worker_tokens_in_use", "Worker-token occupancy (run tokens plus borrowed extras).", nil, float64(m.Work.TokensInUse))
	classHelp := "Requests blocked waiting for a worker token, by priority class."
	p.Gauge("logitdyn_class_queue_depth", classHelp, []obs.Label{{Name: "class", Value: ClassInteractive.String()}}, float64(m.Work.QueueDepthInteractive))
	p.Gauge("logitdyn_class_queue_depth", classHelp, []obs.Label{{Name: "class", Value: ClassSweep.String()}}, float64(m.Work.QueueDepthSweep))
	p.Counter("logitdyn_sweep_points_preempted_total", "Token handoffs that served interactive traffic ahead of queued sweep points.", nil, float64(m.Work.SweepPointsPreempted))
	p.Counter("logitdyn_admission_rejected_total", "Requests refused with 429 by queue-depth admission control.", nil, float64(m.Work.AdmissionRejected))
	p.Counter("logitdyn_parallel_extra_granted_total", "Extra worker tokens granted to intra-request parallelism.", nil, float64(m.Work.ParallelExtraGranted))
	p.Counter("logitdyn_parallel_extra_denied_total", "Borrow requests that received fewer extra tokens than they asked for.", nil, float64(m.Work.ParallelExtraDenied))

	scrHelp := "Scratch-arena checkouts, by kind (hit = recycled slice, miss = fresh allocation)."
	p.Counter("logitdyn_scratch_checkouts_total", scrHelp, []obs.Label{{Name: "kind", Value: "hit"}}, float64(m.Scratch.Hits))
	p.Counter("logitdyn_scratch_checkouts_total", scrHelp, []obs.Label{{Name: "kind", Value: "miss"}}, float64(m.Scratch.Misses))
	p.Gauge("logitdyn_scratch_outstanding_bytes", "Arena bytes checked out by running analyses.", nil, float64(m.Scratch.OutstandingBytes))
	p.Gauge("logitdyn_scratch_retained_bytes", "Arena bytes parked in free lists awaiting reuse.", nil, float64(m.Scratch.RetainedBytes))
	p.Gauge("logitdyn_scratch_arenas", "Arenas the scratch pool has created.", nil, float64(m.Scratch.Arenas))

	if m.Journal != nil {
		p.Gauge("logitdyn_journal_entries", "Live (queued/running) sweep jobs on disk in the journal.", nil, float64(m.Journal.Entries))
		jHelp := "Sweep-job journal events, by kind."
		p.Counter("logitdyn_journal_events_total", jHelp, []obs.Label{{Name: "kind", Value: "record"}}, float64(m.Journal.Records))
		p.Counter("logitdyn_journal_events_total", jHelp, []obs.Label{{Name: "kind", Value: "remove"}}, float64(m.Journal.Removes))
		p.Counter("logitdyn_journal_events_total", jHelp, []obs.Label{{Name: "kind", Value: "skipped"}}, float64(m.Journal.Skipped))
		p.Counter("logitdyn_journal_replays_total", "Journaled sweep jobs resumed at boot.", nil, float64(m.Journal.Replays))
	}

	p.Gauge("logitdyn_streams_active", "SSE connections open right now.", nil, float64(m.Streams.Active))
	strHelp := "SSE streams opened, by kind."
	p.Counter("logitdyn_streams_total", strHelp, []obs.Label{{Name: "kind", Value: "sweep"}}, float64(m.Streams.SweepStreams))
	p.Counter("logitdyn_streams_total", strHelp, []obs.Label{{Name: "kind", Value: "simulate"}}, float64(m.Streams.SimulateStreams))
	p.Counter("logitdyn_stream_events_sent_total", "SSE frames written across all streams.", nil, float64(m.Streams.EventsSent))
	p.Counter("logitdyn_stream_lagged_total", "Sweep-stream subscribers dropped for falling behind.", nil, float64(m.Streams.Lagged))
	p.Counter("logitdyn_stream_snapshots_dropped_total", "Simulate-stream snapshots skipped for a slow client.", nil, float64(m.Streams.SnapshotsDropped))
	p.Counter("logitdyn_stream_long_polls_total", "Sweep status requests that parked on ?wait=.", nil, float64(m.Streams.LongPolls))

	sweepHelp := "Sweep jobs in the registry, by state."
	p.Gauge("logitdyn_sweep_jobs", sweepHelp, []obs.Label{{Name: "state", Value: "running"}}, float64(m.Sweeps.Running))
	p.Gauge("logitdyn_sweep_jobs", sweepHelp, []obs.Label{{Name: "state", Value: "done"}}, float64(m.Sweeps.Done))
	p.Gauge("logitdyn_sweep_jobs", sweepHelp, []obs.Label{{Name: "state", Value: "cancelled"}}, float64(m.Sweeps.Cancelled))
	p.Gauge("logitdyn_sweep_jobs", sweepHelp, []obs.Label{{Name: "state", Value: "failed"}}, float64(m.Sweeps.Failed))

	if m.Observability != nil {
		p.Counter("logitdyn_traces_started_total", "Traces minted since start.", nil, float64(m.Observability.TracesStarted))
		p.Gauge("logitdyn_traces_retained", "Traces currently in the ring.", nil, float64(m.Observability.TracesRetained))
		p.Counter("logitdyn_trace_spans_dropped_total", "Spans dropped by the per-trace cap.", nil, float64(m.Observability.SpansDropped))
		// The stage histograms split into two families: request:<endpoint>
		// timers become request_duration_seconds{endpoint}, everything else
		// is a pipeline stage.
		for _, h := range m.Observability.Stages {
			if ep, ok := strings.CutPrefix(h.Name, "request:"); ok {
				p.Histogram("logitdyn_request_duration_seconds",
					"End-to-end request latency, by endpoint.",
					[]obs.Label{{Name: "endpoint", Value: ep}}, h.HistogramSnapshot)
			}
		}
		for _, h := range m.Observability.Stages {
			if _, ok := strings.CutPrefix(h.Name, "request:"); !ok {
				p.Histogram("logitdyn_stage_duration_seconds",
					"Pipeline stage latency, by stage.",
					[]obs.Label{{Name: "stage", Value: h.Name}}, h.HistogramSnapshot)
			}
		}
	}
	_ = p.Err()
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spec"
	"logitdyn/internal/spectral"
	"logitdyn/internal/store"
)

// The serve_dense request classes.
const (
	classCold  = iota // a key never requested: full analysis plus store write
	classHit          // the connection's previous key, still in the LRU
	classStore        // a key pushed out of the LRU: store read-through
)

const (
	serveConns   = 2
	daemonStarts = 25
	// cacheSize is the daemon's -cache. Hits repeat the connection's
	// previous key, so at most a request or two of the other connection can
	// touch the LRU in between; store reads repeat the connection's least
	// recently used key once cacheSize of its own keys were touched after
	// it, so it has left the LRU whatever the other connection did. Either
	// class is therefore known before the request is sent.
	cacheSize = 16
	// warmCold is how many cold requests each connection sends before the
	// measured window, so the store holds evicted keys from the start.
	warmCold = cacheSize + 4
	// serveRate bounds the requests generated per connection per second.
	serveRate = 400
	// coldSample is how many cold requests per game size a traced run
	// replays layer by layer: the first connection's warm-up holds one per
	// family and β third. hitSample is how many hits it replays.
	coldSample = 6
	hitSample  = 24
)

// serveSizes are the player counts of the served games: 64, 128 and 256
// profiles, all on the dense exact route.
var serveSizes = []int{6, 7, 8}

type serveKey struct {
	spec spec.Spec
	beta float64
	body []byte
}

type serveReq struct{ class, key int }

// serveConn is one client connection: its generated requests and, once
// replayed, what the daemon answered.
type serveConn struct {
	id   int
	keys []serveKey
	reqs []serveReq

	done   int // requests sent, warm-up included
	lat    []float64
	traced []bool
	status []int
	bodies [][]byte
}

// genConn generates a connection's request sequence: warmCold cold
// requests, then 20% cold, 60% repeats of the previous key and 20% repeats
// of a key evicted from the LRU, on double-well and Ising-ring games of
// 64, 128 and 256 profiles with β in [0.25, 2]. Decks hold the class mix
// and the game, size and β-third mix of the cold requests exact, because
// the 256-profile share sets most of the workload's cost. seen keeps keys
// disjoint across connections.
func genConn(rng *rand.Rand, n int, seen map[string]bool) *serveConn {
	c := &serveConn{}
	classes := newDeck(rng, classCold, classHit, classHit, classHit, classStore)
	games := newDeck(rng)
	for g := 0; g < 2*len(serveSizes)*3; g++ {
		games.values = append(games.values, g)
	}
	var order []int // the connection's keys, least recently touched first
	touch := func(k int) {
		for i := len(order) - 1; i >= 0; i-- {
			if order[i] == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append(order, k)
	}
	newKey := func() int {
		for {
			g := games.draw()
			n := serveSizes[g%len(serveSizes)]
			s := spec.Spec{Game: "doublewell", N: n, C: 2, Delta1: 1}
			if g/len(serveSizes)%2 == 1 {
				s = spec.Spec{Game: "ising", Graph: "ring", N: n, Delta1: 1}
			}
			third := float64(g / (2 * len(serveSizes)))
			beta := 0.25 + 1.75*(third+rng.Float64())/3
			body, _ := json.Marshal(struct {
				Spec spec.Spec `json:"spec"`
				Beta float64   `json:"beta"`
			}{s, beta})
			if seen[string(body)] {
				continue
			}
			seen[string(body)] = true
			c.keys = append(c.keys, serveKey{spec: s, beta: beta, body: body})
			return len(c.keys) - 1
		}
	}
	for i := 0; i < n; i++ {
		class := classCold
		if i >= warmCold {
			class = classes.draw()
		}
		var k int
		switch class {
		case classHit:
			k = order[len(order)-1]
		case classStore:
			k = order[0] // len(order) > cacheSize after the warm-up
		default:
			k = newKey()
		}
		touch(k)
		c.reqs = append(c.reqs, serveReq{class: class, key: k})
	}
	return c
}

// serveDense is the serve_dense workload: the logitdynd binary built from
// the tree under test, run with -workers 2, a temp -store and -cache 16
// over loopback, driven closed-loop by two client connections that each
// replay their own seed-generated requests. Cold requests put the wall
// time into the dense exact route; repeats put the latency into the
// service, its cache, store reads and serialization.
func serveDense(r *run) error {
	if r.cfg.daemon == "" {
		return errors.New("serve_dense needs -daemon")
	}
	perConn := warmCold + int(r.cfg.seconds*serveRate) + 100
	seen := map[string]bool{}
	var conns []*serveConn
	for c := 0; c < serveConns; c++ {
		conn := genConn(rand.New(rand.NewPCG(r.rng.Uint64(), r.rng.Uint64())), perConn, seen)
		conn.id = c
		conns = append(conns, conn)
	}

	// A start takes a few milliseconds, in which scheduling jitter is large,
	// so the daemon starts far more often than the in-process workloads set
	// up: the median of daemonStarts steadies setup_s at no real cost.
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(r, i); err != nil {
			return err
		}
		r.setup = append(r.setup, took.Seconds())
	}
	defer d.stop()

	each := func(fn func(c *serveConn)) {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	each(func(c *serveConn) {
		for c.done < warmCold {
			c.send(r, d, false)
		}
	})
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	each(func(c *serveConn) {
		for c.done < len(c.reqs) && time.Now().Before(deadline) {
			c.send(r, d, r.cfg.trace && c.done%2 == 1)
		}
	})
	r.wall = time.Since(start).Seconds()
	for _, c := range conns {
		if c.done == len(c.reqs) {
			r.note("a connection ran out of generated requests before the window closed")
		}
	}

	var m daemonMetrics
	merr := d.getJSON("/metrics", &m)
	r.rssMB = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err := d.stop(); err != nil {
		return err
	}

	var count [3]int
	var classLat [3][]float64
	var tracedLat, plainLat, sizes []float64
	for ci, c := range conns {
		ref := map[int][]byte{}
		for i := 0; i < c.done; i++ {
			q := c.reqs[i]
			count[q.class]++
			r.check(fmt.Sprintf("conn %d request %d (%s)", ci, i, c.keys[q.key].body), checkResponse(q.class, c.status[i], c.bodies[i], ref, q.key))
			if i < warmCold {
				continue
			}
			r.lat = append(r.lat, c.lat[i])
			classLat[q.class] = append(classLat[q.class], c.lat[i])
			sizes = append(sizes, float64(len(c.bodies[i])))
			// Tracing overhead compares hits alone: the p50 of a mixed
			// subset moves with its class mix.
			switch {
			case q.class != classHit:
			case c.traced[i]:
				tracedLat = append(tracedLat, c.lat[i])
			default:
				plainLat = append(plainLat, c.lat[i])
			}
		}
	}
	// The daemon's own counters must show exactly the intended mix: one
	// analysis per cold request, a memory hit per repeat of the previous
	// key, a store read per repeat of an evicted key, and no refusals.
	r.check("/metrics", merr)
	r.check("/metrics analyses = cold requests", wantCount(m.Work.Analyses, count[classCold]))
	r.check("/metrics memory hits = repeats of the previous key", wantCount(m.Cache.Hits, count[classHit]))
	r.check("/metrics store hits = repeats of evicted keys", wantCount(m.Store.Hits, count[classStore]))
	r.check("/metrics admission rejections = 0", wantCount(m.Work.Rejected, 0))
	if !r.cfg.trace {
		return nil
	}

	total := float64(count[classCold] + count[classHit] + count[classStore])
	r.layers["service.hit_p50_ms"] = median(classLat[classHit])
	r.layers["service.cold_p50_ms"] = median(classLat[classCold])
	r.layers["service.analyses"] = float64(m.Work.Analyses)
	r.layers["service.cache_hit_ratio"] = float64(m.Cache.Hits) / total
	r.layers["service.store_hit_ratio"] = float64(m.Store.Hits) / total
	r.layers["service.rejected"] = float64(m.Work.Rejected)
	r.layers["serialize.response_bytes"] = median(sizes)
	r.layers["ledger.trace_overhead"] = median(tracedLat) / median(plainLat)
	return r.serveLedger(conns, classLat)
}

// send sends the connection's next request, in a span when traced, and
// records the answer.
func (c *serveConn) send(r *run, d *daemon, traced bool) {
	k := c.keys[c.reqs[c.done].key]
	var status int
	var body []byte
	call := func() { status, body = d.post(k.body) }
	var took time.Duration
	if traced {
		took = r.tr.leaf("http.analyze", -1, c.id<<20|c.done, call)
	} else {
		t0 := time.Now()
		call()
		took = time.Since(t0)
	}
	c.lat = append(c.lat, ms(took))
	c.traced = append(c.traced, traced)
	c.status = append(c.status, status)
	c.bodies = append(c.bodies, body)
	c.done++
}

// analyzeResponse is the part of the /v1/analyze answer the checks read.
type analyzeResponse struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report"`
}

// checkResponse holds one answer to its class: 200; a cold answer is not
// cached and its exact t_mix lies in the Theorem 2.3 sandwich and under the
// Theorem 3.4 bound; a repeat is cached and its report is byte-identical to
// the cold answer for the key, which ref keeps.
func checkResponse(class, status int, body []byte, ref map[int][]byte, key int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp analyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if class != classCold {
		if !resp.Cached {
			return errors.New("repeat answered with cached=false")
		}
		if !bytes.Equal(resp.Report, ref[key]) {
			return errors.New("repeat report differs from the cold report for its key")
		}
		return nil
	}
	if resp.Cached {
		return errors.New("cold request answered with cached=true")
	}
	ref[key] = resp.Report
	var doc serialize.ReportDoc
	if err := json.Unmarshal(resp.Report, &doc); err != nil {
		return err
	}
	t := float64(doc.MixingTime)
	switch {
	case doc.Backend != "dense" || !doc.MixingTimeExact:
		return fmt.Errorf("backend %q, exact %v; want the dense exact route", doc.Backend, doc.MixingTimeExact)
	case !(float64(doc.SpectralLower) <= t && t <= float64(doc.SpectralUpper)):
		return fmt.Errorf("t_mix %d outside the Thm 2.3 sandwich [%v, %v]", doc.MixingTime, doc.SpectralLower, doc.SpectralUpper)
	case doc.Bounds == nil || !(t <= float64(doc.Bounds.Thm34Upper)):
		return fmt.Errorf("t_mix %d above the Thm 3.4 bound", doc.MixingTime)
	}
	return nil
}

func wantCount(got uint64, want int) error {
	if got != uint64(want) {
		return fmt.Errorf("got %d, want %d", got, want)
	}
	return nil
}

// daemonMetrics is the part of /metrics the benchmark reads.
type daemonMetrics struct {
	Cache struct {
		Hits uint64 `json:"hits"`
	} `json:"cache"`
	Store struct {
		Hits uint64 `json:"hits"`
	} `json:"store"`
	Work struct {
		Analyses uint64 `json:"analyses_performed"`
		Rejected uint64 `json:"admission_rejected_total"`
	} `json:"work"`
}

// serveLedger replays a sample of the measured requests in-process, one
// exported call per span, and reconciles the layers with the mean request
// latency (the request classes differ too much for a median to add up).
func (r *run) serveLedger(conns []*serveConn, classLat [3][]float64) error {
	par := linalg.ParallelConfig{Workers: 1}
	replay, err := store.Open(filepath.Join(r.tmp, "replay-store"), store.Options{})
	if err != nil {
		return err
	}
	type sample struct {
		k   serveKey
		key string
		doc serialize.ReportDoc
	}
	var colds, hits []sample
	perSize := map[int]int{}
	nHits := 0
	for _, c := range conns {
		for i := 0; i < c.done; i++ {
			q := c.reqs[i]
			k := c.keys[q.key]
			if q.class == classHit {
				nHits++
			}
			if q.class == classCold && perSize[k.spec.N] < coldSample || q.class == classHit && nHits%7 == 0 && len(hits) < hitSample {
				var resp analyzeResponse
				var doc serialize.ReportDoc
				if err := json.Unmarshal(c.bodies[i], &resp); err != nil {
					return err
				}
				if err := json.Unmarshal(resp.Report, &doc); err != nil {
					return err
				}
				if q.class == classCold {
					perSize[k.spec.N]++
					colds = append(colds, sample{k, resp.Key, doc})
				} else {
					hits = append(hits, sample{k, resp.Key, doc})
				}
			}
		}
	}

	// front is the work every request does around the cache: build and
	// materialize the game, digest it, and encode the answer.
	front := func(op int, s sample) (*game.TableGame, error) {
		var tg *game.TableGame
		var err error
		r.tr.leaf("game.materialize", -1, op, func() {
			var g game.Game
			if g, err = s.k.spec.Build(); err == nil {
				tg = game.MaterializePar(g, par)
			}
		})
		if err != nil {
			return nil, err
		}
		r.tr.leaf("store.digest", -1, op, func() { store.GameDigest(tg) })
		r.tr.leaf("serialize.encode", -1, op, func() {
			err = serialize.EncodeReport(io.Discard, serialize.FromReport(s.doc.Report(), s.k.spec.Game, mixing.DefaultEps))
		})
		return tg, err
	}
	// Replay op ids start above the request spans' (connection<<20 | index).
	const coldBase, hitBase = serveConns << 20, (serveConns + 1) << 20
	var coldOps, hitOps []int
	for j, s := range hits {
		if _, err := front(hitBase+j, s); err != nil {
			return err
		}
		hitOps = append(hitOps, hitBase+j)
	}
	for j, s := range colds {
		op := coldBase + j
		tg, err := front(op, s)
		if err != nil {
			return err
		}
		if err := denseLayers(r.tr, op, tg, s.k.beta, par); err != nil {
			return err
		}
		r.tr.leaf("store.put", -1, op, func() { err = replay.Put(s.key, s.doc) })
		if err != nil {
			return err
		}
		var ok bool
		r.tr.leaf("store.get", -1, op, func() { _, ok = replay.Get(s.key) })
		if !ok {
			return fmt.Errorf("replay store lost %s", s.key)
		}
		coldOps = append(coldOps, op)
	}

	self := r.tr.selfTimes()
	frontNames := []string{"game.materialize", "store.digest", "serialize.encode"}
	hitFront := make([]float64, len(hitOps))
	for _, name := range frontNames {
		for j, v := range perOp(self, name, hitOps) {
			hitFront[j] += v
		}
	}
	for _, name := range frontNames {
		r.layers[layerMetric(name)] = median(perOp(self, name, hitOps))
	}
	r.layers["service.http_ms"] = median(classLat[classHit]) - median(hitFront)
	coldWork := mean(perOp(self, "store.put", coldOps))
	for _, name := range denseLayerNames {
		v := mean(perOp(self, name, coldOps))
		coldWork += v
		if m := layerMetric(name); m != "" {
			r.layers[m] = v
		}
	}
	r.layers["store.put_ms"] = mean(perOp(self, "store.put", coldOps))
	r.layers["store.get_ms"] = mean(perOp(self, "store.get", coldOps))

	var all []float64
	for _, xs := range classLat {
		all = append(all, xs...)
	}
	n := float64(len(all))
	meanLat := mean(all)
	frontMean := 0.0
	for _, name := range frontNames {
		frontMean += mean(perOp(self, name, hitOps))
	}
	sum := frontMean + float64(len(classLat[classCold]))/n*coldWork + float64(len(classLat[classStore]))/n*r.layers["store.get_ms"]
	r.layers["ledger.residual_share"] = 1 - sum/meanLat
	r.note("ledger: mean request latency %.3f ms; front work (materialize + digest + encode) %.3f ms on every request, cold work (dense analysis + store write) %.3f ms on %.1f%% of requests, store read %.3f ms on %.1f%% = %.3f ms",
		meanLat, frontMean, coldWork, 100*float64(len(classLat[classCold]))/n, r.layers["store.get_ms"], 100*float64(len(classLat[classStore]))/n, sum)
	r.note("serve_dense layers are replayed in-process at worker budget 1: cold layers are means over %d cold requests, %d per size, one per family and β third; front layers are medians over %d hits", len(coldOps), coldSample, len(hitOps))
	r.note("the residual is HTTP and request decoding, the cache lookup, token waits, and the two connections and the client sharing 2 CPUs, none of which the benchmark can time from outside; service.http_ms (hit p50 minus its replayed front work) estimates the HTTP part")
	return nil
}

// denseLayerNames are the layers of the dense exact route of
// core.AnalyzeGame, in call order.
var denseLayerNames = []string{
	"logit.new", "logit.stationary", "logit.dense_build", "linalg.symeigen",
	"spectral.mixing_time", "mixing.potential_stats", "mixing.bounds",
	"game.nash", "game.dominant", "mixing.welfare",
}

// denseLayers replays the dense exact route of core.AnalyzeGame one
// exported call at a time, each in its own span. The route computes the
// stationary distribution twice, once for the spectral decomposition and
// once for the report, and so does the replay.
func denseLayers(tr *tracer, op int, tg *game.TableGame, beta float64, par linalg.ParallelConfig) error {
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			tr.leaf(name, -1, op, func() { err = fn() })
		}
	}
	p, ok := game.AsPotential(tg)
	if !ok {
		return errors.New("game has no potential")
	}
	var d *logit.Dynamics
	var pi []float64
	var dense *linalg.Dense
	var dec *spectral.Decomposition
	var st *mixing.PotentialStats
	step("logit.new", func() (e error) { d, e = logit.New(tg, beta); return })
	step("logit.stationary", func() (e error) { pi, e = d.StationaryPar(par); return })
	step("logit.dense_build", func() error { dense = d.TransitionDensePar(par); return nil })
	step("linalg.symeigen", func() (e error) { dec, e = spectral.Decompose(dense, pi); return })
	step("spectral.mixing_time", func() (e error) { _, e = dec.WithParallel(par).MixingTime(mixing.DefaultEps, 1<<62); return })
	step("logit.stationary", func() (e error) { pi, e = d.StationaryPar(par); return })
	step("mixing.potential_stats", func() (e error) { st, e = mixing.AnalyzePotentialPar(p, par); return })
	step("mixing.bounds", func() (e error) { _, e = mixing.ReportFromStats(p, beta, mixing.DefaultEps, st); return })
	step("game.nash", func() error { game.PureNashEquilibriaPar(tg, 1e-12, par); return nil })
	step("game.dominant", func() error { game.DominantProfilePar(tg, 1e-12, par); return nil })
	step("mixing.welfare", func() (e error) { _, e = mixing.StationaryWelfarePar(d, pi, par); return })
	return err
}

// layerMetric names the per-layer metric a span feeds, or "" for spans
// that only enter the ledger.
func layerMetric(span string) string {
	switch span {
	case "logit.new", "mixing.bounds":
		return ""
	}
	return span + "_ms"
}

// daemon is a running logitdynd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	exited  chan error
	stopped bool
	stopErr error
}

// startDaemon execs logitdynd on a free loopback port with an empty store
// and returns once /healthz answers, with the time that took.
func startDaemon(r *run, n int) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := filepath.Join(r.tmp, fmt.Sprintf("daemon-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(r.cfg.daemon, "-addr", addr, "-workers", strconv.Itoa(workers),
		"-store", filepath.Join(dir, "store"), "-cache", strconv.Itoa(cacheSize), "-loglevel", "warn")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive a benchmark that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns,
			MaxConnsPerHost:     serveConns,
			DisableCompression:  true,
		}},
		exited: make(chan error, 1),
	}
	go func() { d.exited <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, 0, fmt.Errorf("logitdynd exited before /healthz answered (%v); log in %s", err, logf.Name())
		// A start takes a few ms; polling finer than that keeps the poll
		// interval out of setup_s.
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("logitdynd did not answer /healthz within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing it
// after 20s), and closes idle client connections. It is safe to call twice.
func (d *daemon) stop() error {
	if d.stopped {
		return d.stopErr
	}
	d.stopped = true
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		d.stopErr = errors.New("logitdynd did not stop within 20s of SIGTERM")
	}
	return d.stopErr
}

// post sends one analyze request and returns the status and whole body;
// a transport error reads as status 0 with the error as body.
func (d *daemon) post(body []byte) (int, []byte) {
	resp, err := d.client.Post(d.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, out
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Command perfbench is logitdyn's benchmark. One invocation runs one
// workload in a fresh process, generates every input from -seed, times the
// workload for -seconds, checks every output against the paper's bounds and
// the library's own contracts, and prints one JSON result as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload analyze_sparse65k --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics instead, measured from outside by timing
// calls into each module's exported functions on the same inputs, plus the
// ledger that reconciles the layers with the end-to-end op time. Spans are
// kept in memory and written to <workdir>/traces at the end.
//
// The worker budget and GOMAXPROCS are both fixed at 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the worker budget every workload runs at, and GOMAXPROCS.
const workers = 2

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string
	workdir  string
	commit   string
}

// endToEnd lists the metrics a -trace 0 run prints, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run prints. A layer a workload does
// not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"logit.csr_build_ms", "ms"},
	{"logit.gibbs_ms", "ms"},
	{"logit.csr_nnz", "count"},
	{"spectral.lanczos_ms", "ms"},
	{"spectral.lanczos_iters", "count"},
	{"spectral.matvec_ms", "ms"},
	{"spectral.reorth_ms", "ms"},
	{"linalg.matvec_bytes", "bytes"},
	{"linalg.matvec_gbps", "GB/s"},
	{"linalg.memcpy_gbps", "GB/s"},
	{"linalg.par_ratio", "ratio"},
	{"mixing.potential_stats_ms", "ms"},
	{"mixing.welfare_ms", "ms"},
	{"game.nash_ms", "ms"},
	{"game.dominant_ms", "ms"},
	{"logit.dense_build_ms", "ms"},
	{"logit.stationary_ms", "ms"},
	{"linalg.symeigen_ms", "ms"},
	{"spectral.mixing_time_ms", "ms"},
	{"game.materialize_ms", "ms"},
	{"store.digest_ms", "ms"},
	{"serialize.encode_ms", "ms"},
	{"serialize.response_bytes", "bytes"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.cold_p50_ms", "ms"},
	{"service.analyses", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"sweep.point_ms", "ms"},
	{"sweep.analyzed", "count"},
	{"sweep.store_hits", "count"},
	{"scratch.reuse_ratio", "ratio"},
	{"scratch.retained_bytes", "bytes"},
	{"logit.step_ns", "ns"},
	{"rng.draw_ns", "ns"},
	{"sim.par_ratio", "ratio"},
	{"sim.replica_steps", "count"},
	{"ledger.residual_share", "ratio"},
	{"ledger.trace_overhead", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"analyze_sparse65k": analyzeSparse,
	"sweep_sameshape8k": sweepSameShape,
	"serve_dense":       serveDense,
	"simulate_10k":      simulateReplicas,
}

func main() {
	var cfg config
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "logitdynd binary built from the tree under test (serve_dense)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temp stores and span files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the tree under test, for the host record")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = trace == 1
	drive, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	res, err := execute(cfg, drive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and assembles its result. Everything besides
// the result line goes to standard output first: the host record, sample
// counts, the fail ratio, the ledger notes and up to ten failed checks.
func execute(cfg config, drive func(*run) error) (*result, error) {
	traces := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.seed, 0x6c6f67697464796e)),
		tmp:    tmp,
		layers: map[string]float64{},
		tr:     newTracer(),
	}
	if err := drive(r); err != nil {
		return nil, err
	}
	if len(r.lat) == 0 {
		return nil, fmt.Errorf("no op completed in the measured window")
	}
	if r.rssMB == 0 {
		r.rssMB = peakRSSMB("self")
	}
	h := hostRecord(cfg)
	hj, _ := json.Marshal(h)
	fmt.Println("host", string(hj))
	fmt.Printf("samples setup=%d ops=%d measured_s=%.3f fail_ratio=%g (%d/%d)\n",
		len(r.setup), len(r.lat), r.wall, float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for i, f := range r.failures {
		if i == 10 {
			fmt.Printf("... %d more failed checks\n", len(r.failures)-10)
			break
		}
		fmt.Println("failed", f)
	}
	for _, n := range r.notes {
		fmt.Println("note", n)
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: r.layers[m.name], Unit: m.unit}
		}
		if err := r.tr.write(filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), h); err != nil {
			return nil, err
		}
		return res, nil
	}
	vals := map[string]float64{
		"setup_s":     median(r.setup),
		"ops_per_s":   float64(len(r.lat)) / r.wall,
		"op_p50_ms":   median(r.lat),
		"op_p90_ms":   quantile(r.lat, 0.9),
		"peak_rss_mb": r.rssMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// run is one workload's state: its input generator, the measured samples,
// the checks and the per-layer numbers.
type run struct {
	cfg config
	rng *rand.Rand
	tmp string // removed when the run ends

	setup []float64 // seconds per set-up
	lat   []float64 // ms per measured op
	wall  float64   // measured seconds: summed op times of one caller, or serve_dense's window
	rssMB float64   // VmHWM of the process doing the work

	// tracedLat and plainLat split the op latencies of a trace run.
	tracedLat, plainLat []float64

	attempted, failed int
	failures          []string

	layers map[string]float64
	tr     *tracer
	notes  []string
}

// check records one checked op: a nil error passes, anything else is a
// failure that counts in the fail ratio without stopping the run.
func (r *run) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setups runs build setupRepeats times, timing each, and keeps the last
// one's state (build stores it in the caller's variables).
func (r *run) setups(build func() error) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	return nil
}

// timeOp times one measured call, inside an "op" span when traced, and
// files its latency as traced or plain for ledger.trace_overhead.
func (r *run) timeOp(i int, traced bool, call func()) time.Duration {
	if traced {
		d := r.tr.leaf("op", -1, i, call)
		r.tracedLat = append(r.tracedLat, ms(d))
		return d
	}
	t0 := time.Now()
	call()
	d := time.Since(t0)
	r.plainLat = append(r.plainLat, ms(d))
	return d
}

// loop runs op back to back for the measured window. op returns the time
// of the measured call alone; runtime.GC before each op and any checking
// after it stay outside the measurement. traced alternates, so a trace run
// times half its ops with spans and half without, and runs at least one of
// each.
func (r *run) loop(op func(i int, traced bool) (time.Duration, error)) error {
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	minOps := 1
	if r.cfg.trace {
		minOps = 2
	}
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		d, err := op(i, r.cfg.trace && i%2 == 1)
		if err != nil {
			return err
		}
		r.lat = append(r.lat, ms(d))
		r.wall += d.Seconds()
	}
	return nil
}

// deck deals a fixed multiset of values in a fresh random order per pass,
// so every pass holds the mix exactly and seeds differ only in the order.
type deck struct {
	rng          *rand.Rand
	values, left []int
}

func newDeck(rng *rand.Rand, values ...int) *deck { return &deck{rng: rng, values: values} }

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.values...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// betaDeck deals β from [lo, hi) one stratum at a time: each pass of n
// draws takes one value from each of n equal strata, so the β mix, which
// sets an analysis' cost, is the same for every seed.
func betaDeck(rng *rand.Rand, lo, hi float64, n int) func() float64 {
	d := newDeck(rng)
	for i := 0; i < n; i++ {
		d.values = append(d.values, i)
	}
	return func() float64 { return lo + (hi-lo)*(float64(d.draw())+rng.Float64())/float64(n) }
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// peakRSSMB reads VmHWM of /proc/<pid>/status in MB (0 if unreadable).
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

type host struct {
	CPU        string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"worker_budget"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Unmeasured []string `json:"unmeasured"`
}

func hostRecord(cfg config) host {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	var unmeasured []string
	if runtime.NumCPU() < 4 {
		unmeasured = append(unmeasured, "4-worker parallel guardrail: this host has fewer than 4 CPUs")
	}
	unmeasured = append(unmeasured, "4,096-profile dense exact analysis: too slow for a benchmark run (dense cost grows ~8x per doubling)")
	return host{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: cfg.commit,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Unmeasured: unmeasured,
	}
}

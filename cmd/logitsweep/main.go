// Command logitsweep runs a sweep grid to completion against the
// persistent report store directly — no daemon needed — and prints the
// aggregate table. Grid points whose reports the store already holds are
// never re-analyzed, so an interrupted run (Ctrl-C, crash, power loss)
// resumes from where it stopped when re-invoked, and a fully warm store
// reproduces the table with zero analyses.
//
// Example:
//
//	cat > grid.json <<'EOF'
//	{
//	  "name": "wells-vs-beta",
//	  "axes": {
//	    "game": ["doublewell", "asymwell"],
//	    "n": [8, 10, 12],
//	    "beta": {"from": 0.5, "to": 4, "steps": 8}
//	  },
//	  "base": {"c": 2, "delta1": 1, "depth": 3, "shallow": 1}
//	}
//	EOF
//	logitsweep -grid grid.json -store ./reports -format csv -o table.csv
//
// With -scrub, logitsweep skips the grid entirely and runs a one-shot
// integrity pass over the store, dropping (and counting) entries whose
// checksummed envelopes no longer verify:
//
//	logitsweep -store ./reports -scrub
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"logitdyn/internal/cluster"
	"logitdyn/internal/obs"
	"logitdyn/internal/scratch"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "logitsweep: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	gridPath := flag.String("grid", "", "grid file (JSON; \"-\" = stdin)")
	storeDir := flag.String("store", "", "persistent report-store director(ies); comma-separated directories shard by consistent hash (empty = run everything cold, keep nothing)")
	storeMax := flag.Int64("storemax", 0, "report-store size budget in bytes per shard (0 = unbounded)")
	storeMaxAge := flag.Duration("storemaxage", 0, "report-store age budget: entries older than this are evicted even under the byte budget (0 = keep forever)")
	scrub := flag.Bool("scrub", false, "one-shot mode: integrity-scrub the store (dropping damaged entries) and exit; requires -store, ignores -grid")
	workers := flag.Int("workers", 0, "worker-token budget shared by point fan-out and intra-analysis parallelism (0 = GOMAXPROCS); never changes reported numbers")
	maxPoints := flag.Int("maxpoints", 0, "max grid points (0 = default)")
	maxProfiles := flag.Int("maxprofiles", 0, "max profile-space size per point on the dense backend (0 = default)")
	maxSparseProfiles := flag.Int("maxsparseprofiles", 0, "max profile-space size per point on the sparse/matfree backends (0 = default)")
	format := flag.String("format", "table", "output format: table|json|csv")
	out := flag.String("o", "", "write the aggregate table to this file (default stdout)")
	logFormat := flag.String("logformat", "text", "structured log format on stderr: text or json")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn or error")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatalf("%v", err)
	}

	if *scrub {
		// One-shot store maintenance: open, scrub, report, exit. No grid in
		// the loop — this is the cron-job / admin entry point for stores not
		// fronted by a daemon.
		if *storeDir == "" {
			fatalf("-scrub requires -store")
		}
		st, err := cluster.OpenFromFlags(*storeDir, store.Options{MaxBytes: *storeMax, MaxAge: *storeMaxAge}, "", 0)
		if err != nil {
			fatalf("%v", err)
		}
		sc, ok := st.(cluster.Scrubber)
		if !ok {
			fatalf("store does not support scrubbing")
		}
		res, err := sc.Scrub()
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("scrub complete", "dir", *storeDir, "scanned", res.Scanned, "damaged", res.Damaged)
		fmt.Printf("scanned %d entries, dropped %d damaged\n", res.Scanned, res.Damaged)
		return
	}

	if *gridPath == "" {
		fatalf("missing -grid (a JSON grid file, or - for stdin)")
	}
	var in io.Reader = os.Stdin
	if *gridPath != "-" {
		f, err := os.Open(*gridPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	grid, err := sweep.ParseGrid(in)
	if err != nil {
		fatalf("%v", err)
	}

	// Fail on output problems BEFORE the sweep runs: a typo'd -format or
	// an unwritable -o discovered after hours of analysis would discard
	// the run (entirely, when no store is configured).
	switch *format {
	case "table", "json", "csv":
	default:
		fatalf("unknown -format %q (table|json|csv)", *format)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}

	st, err := cluster.OpenFromFlags(*storeDir, store.Options{MaxBytes: *storeMax, MaxAge: *storeMaxAge}, "", 0)
	if err != nil {
		fatalf("%v", err)
	}
	if st != nil {
		logger.Info("store open", "dir", *storeDir, "entries", st.Metrics().Entries)
	}

	limits := spec.DefaultLimits()
	if *maxProfiles > 0 {
		limits.MaxProfiles = *maxProfiles
	}
	if *maxSparseProfiles > 0 {
		limits.MaxSparseProfiles = *maxSparseProfiles
	}

	// One worker-token pool bounds the whole run: each in-flight point
	// holds one token and borrows idle ones for its mat-vecs, exactly like
	// the daemon. The pool view is sweep-class (the CLI has no interactive
	// traffic, but the class keeps its token accounting identical to the
	// daemon's sweep path — priorities never change output bits).
	// Interrupts cancel cleanly between points; completed points are
	// already persisted, so rerunning the same command resumes.
	pool := service.NewPool(*workers)
	runner := &sweep.Runner{
		Eval:      sweep.DirectEvalScratch(st, pool.ForClass(service.ClassSweep), scratch.NewPool()),
		Limits:    limits,
		Workers:   pool.Workers(),
		MaxPoints: *maxPoints,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, stats, runErr := runner.Run(ctx, grid)
	if res == nil {
		fatalf("%v", runErr)
	}
	logger.Info("sweep complete",
		"points", stats.Points, "unique", stats.Unique, "duplicates", stats.Duplicates,
		"analyzed", stats.Analyzed, "store_hits", stats.StoreHits,
		"failed", stats.Failed, "cancelled", stats.Cancelled)

	switch *format {
	case "table":
		if _, err := io.WriteString(w, res.TableString()); err != nil {
			fatalf("%v", err)
		}
	case "json":
		if err := sweep.EncodeJSON(w, res); err != nil {
			fatalf("%v", err)
		}
	case "csv":
		if err := sweep.EncodeCSV(w, res); err != nil {
			fatalf("%v", err)
		}
	}
	if runErr != nil {
		logger.Warn("interrupted — rerun the same command to resume from the store")
		os.Exit(1)
	}
}

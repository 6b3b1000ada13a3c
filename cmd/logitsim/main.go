// Command logitsim simulates a trajectory of the logit dynamics on a named
// game and compares the empirical occupancy with the Gibbs prediction.
//
// Example:
//
//	logitsim -game ising -graph ring -n 8 -delta1 1 -beta 0.5 -steps 200000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"logitdyn/internal/core"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/mixing"
	"logitdyn/internal/plot"
	"logitdyn/internal/rng"
	"logitdyn/internal/serialize"
	"logitdyn/internal/sim"
	"logitdyn/internal/spec"
)

func main() {
	var s spec.Spec
	flag.StringVar(&s.Game, "game", "coordination", "game family")
	flag.StringVar(&s.Graph, "graph", "ring", "social graph for graphical/ising games")
	flag.IntVar(&s.N, "n", 2, "players / vertices")
	flag.IntVar(&s.M, "m", 2, "strategies per player")
	flag.IntVar(&s.C, "c", 1, "double-well barrier location")
	flag.Float64Var(&s.Delta0, "delta0", 3, "coordination gap δ0")
	flag.Float64Var(&s.Delta1, "delta1", 2, "coordination gap δ1 / coupling")
	flag.Float64Var(&s.Depth, "depth", 3, "asymmetric-well deep depth")
	flag.Float64Var(&s.Shallow, "shallow", 1, "asymmetric-well shallow depth")
	flag.IntVar(&s.Rows, "rows", 2, "grid/torus rows")
	flag.IntVar(&s.Cols, "cols", 3, "grid/torus cols")
	flag.Uint64Var(&s.Seed, "seed", 1, "RNG seed")
	beta := flag.Float64("beta", 1, "inverse noise β")
	steps := flag.Int("steps", 100000, "simulation steps per replica")
	replicas := flag.Int("replicas", 1, "independent trajectories to pool (>1: replica r uses stream Split(r) of -seed; 1 keeps the historical direct stream)")
	workers := flag.Int("workers", 0, "worker budget for replicas and -spectral (0 = GOMAXPROCS); never changes results")
	top := flag.Int("top", 8, "profiles to print")
	jsonOut := flag.Bool("json", false, "emit the simulation as JSON on stdout (the service wire format)")
	spectralOut := flag.Bool("spectral", false, "also report λ*/t_rel of the chain via the selected backend")
	backendFlag := flag.String("backend", "auto", "linear-algebra backend for -spectral: auto|dense|sparse|matfree")
	flag.Parse()

	g, err := s.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "logitsim: %v\n", err)
		os.Exit(2)
	}
	d, err := logit.New(g, *beta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logitsim: %v\n", err)
		os.Exit(2)
	}
	if *replicas < 1 {
		fmt.Fprintf(os.Stderr, "logitsim: -replicas must be >= 1\n")
		os.Exit(2)
	}
	if *steps < 1 {
		fmt.Fprintf(os.Stderr, "logitsim: -steps must be >= 1\n")
		os.Exit(2)
	}
	sp := d.Space()
	start := make([]int, sp.Players())
	// One walker (and σ table, when the run is long enough) for every
	// replica; -workers also bounds the table build.
	w := d.NewWalker(*steps, *replicas, linalg.ParallelConfig{Workers: *workers})
	var counts []int64
	if *replicas == 1 {
		// The historical single-trajectory stream: rng.New(seed) directly.
		counts = make([]int64, sp.Size())
		w.Walk(counts, start, *steps, rng.New(s.Seed), 0, nil)
	} else {
		// Replica r runs on stream Split(r); integer counts merge exactly,
		// so -workers changes wall-clock time only.
		counts = sim.SumCounts(*replicas, s.Seed, *workers, sp.Size(),
			func(_ int, r *rng.RNG, acc []int64) {
				w.Walk(acc, start, *steps, r, 0, nil)
			})
	}
	emp := make([]float64, len(counts))
	visits := float64(*replicas) * float64(*steps+1)
	for i, c := range counts {
		emp[i] = float64(c) / visits
	}

	gibbs, gerr := d.GibbsPar(linalg.Serial)
	if *jsonOut {
		doc := serialize.SimulationDoc{
			Game:        s.Game,
			Beta:        serialize.Float(*beta),
			Steps:       *steps,
			Seed:        s.Seed,
			NumProfiles: sp.Size(),
			Start:       start,
			Empirical:   emp,
			TVGibbs:     serialize.Float(math.NaN()),
		}
		if *replicas > 1 {
			// Only pooled runs carry the field, so -replicas 1 output stays
			// byte-identical to the pre-replica format.
			doc.Replicas = *replicas
		}
		if gerr == nil {
			doc.TVGibbs = serialize.Float(markov.TVDistance(emp, gibbs))
		}
		if err := serialize.EncodeSimulation(os.Stdout, doc); err != nil {
			fmt.Fprintf(os.Stderr, "logitsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("simulated %d logit steps × %d replicas at β=%g on %q (|S|=%d)\n", *steps, *replicas, *beta, s.Game, sp.Size())
	if gerr == nil {
		fmt.Printf("TV(empirical, Gibbs) = %.4f\n", markov.TVDistance(emp, gibbs))
	} else {
		fmt.Printf("no closed-form Gibbs measure (%v)\n", gerr)
	}
	if *spectralOut {
		b, err := logit.ParseBackend(*backendFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logitsim: %v\n", err)
			os.Exit(2)
		}
		res, err := mixing.RelaxationSandwichPar(d, b.Resolve(sp.Size(), core.DefaultMaxExactStates), mixing.DefaultEps, nil,
			linalg.ParallelConfig{Workers: *workers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "logitsim: -spectral: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("lambda* = %.6g, t_rel = %.4g, t_mix(1/4) in [%.4g, %.4g] (backend %s)\n",
			res.LambdaStar, res.RelaxationTime, res.SpectralLower, res.SpectralUpper, res.Backend)
	}
	fmt.Println()

	idx := make([]int, len(emp))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return emp[idx[a]] > emp[idx[b]] })
	if *top > len(idx) {
		*top = len(idx)
	}
	labels := make([]string, 0, *top)
	values := make([]float64, 0, *top)
	x := make([]int, sp.Players())
	for _, i := range idx[:*top] {
		sp.Decode(i, x)
		label := fmt.Sprint(x)
		if gerr == nil {
			label = fmt.Sprintf("%v gibbs=%.4f", x, gibbs[i])
		}
		labels = append(labels, label)
		values = append(values, emp[i])
	}
	if err := plot.Bars(os.Stdout, labels, values, 40); err != nil {
		fmt.Fprintf(os.Stderr, "logitsim: %v\n", err)
		os.Exit(1)
	}
}

// Command mixtime computes the exact mixing time, spectrum summary,
// potential statistics and all applicable paper bounds for a named game at
// one inverse noise β.
//
// Examples:
//
//	mixtime -game coordination -delta0 3 -delta1 2 -beta 1
//	mixtime -game ising -graph ring -n 8 -delta1 1 -beta 0.5
//	mixtime -game doublewell -n 8 -c 3 -delta1 1 -beta 2
//	mixtime -game dominant -n 3 -m 3 -beta 20
package main

import (
	"flag"
	"fmt"
	"os"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spec"
)

func main() {
	var s spec.Spec
	flag.StringVar(&s.Game, "game", "coordination", "game family")
	flag.StringVar(&s.Graph, "graph", "ring", "social graph for graphical/ising games")
	flag.IntVar(&s.N, "n", 2, "players / vertices")
	flag.IntVar(&s.M, "m", 2, "strategies per player (dominant/random/congestion)")
	flag.IntVar(&s.C, "c", 1, "double-well barrier location")
	flag.Float64Var(&s.Delta0, "delta0", 3, "coordination gap δ0")
	flag.Float64Var(&s.Delta1, "delta1", 2, "coordination gap δ1 (Ising coupling, well slope)")
	flag.Float64Var(&s.Depth, "depth", 3, "asymmetric-well deep depth")
	flag.Float64Var(&s.Shallow, "shallow", 1, "asymmetric-well shallow depth")
	flag.IntVar(&s.Rows, "rows", 2, "grid/torus rows")
	flag.IntVar(&s.Cols, "cols", 3, "grid/torus cols")
	flag.Uint64Var(&s.Seed, "seed", 1, "seed for random games")
	beta := flag.Float64("beta", 1, "inverse noise β")
	eps := flag.Float64("eps", 0.25, "total-variation target ε")
	backend := flag.String("backend", "auto", "linear-algebra backend: auto|dense|sparse|matfree")
	workers := flag.Int("workers", 0, "worker budget for the analysis (0 = GOMAXPROCS); never changes reported numbers")
	loadGame := flag.String("loadgame", "", "read the game from a JSON file instead of -game flags")
	saveGame := flag.String("savegame", "", "write the constructed game as JSON")
	saveResult := flag.String("saveresult", "", "write the analysis result as JSON")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON on stdout (the service wire format)")
	flag.Parse()

	var g game.Game
	var err error
	gameName := s.Game
	if *loadGame != "" {
		f, ferr := os.Open(*loadGame)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", ferr)
			os.Exit(2)
		}
		var doc serialize.GameDoc
		doc, err = serialize.DecodeGameDoc(f)
		f.Close()
		if err == nil {
			if doc.Name != "" {
				gameName = doc.Name
			}
			g, err = doc.Build()
		}
	} else {
		g, err = s.Build()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
		os.Exit(2)
	}
	if *saveGame != "" {
		f, ferr := os.Create(*saveGame)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", ferr)
			os.Exit(2)
		}
		if err := serialize.EncodeGame(f, g, gameName); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	a, err := core.NewAnalyzer(g, *beta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
		os.Exit(2)
	}
	rep, err := a.Analyze(core.Options{
		Eps:      *eps,
		Backend:  *backend,
		Parallel: linalg.ParallelConfig{Workers: *workers},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
		os.Exit(1)
	}

	if *saveResult != "" {
		doc := serialize.ResultDoc{
			Game:           gameName,
			Beta:           rep.Beta,
			Eps:            *eps,
			MixingTime:     rep.MixingTime,
			RelaxationTime: rep.RelaxationTime,
		}
		if rep.Stats != nil {
			doc.DeltaPhi = rep.Stats.DeltaPhi
			doc.Zeta = rep.Stats.Zeta
		}
		f, ferr := os.Create(*saveResult)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", ferr)
			os.Exit(1)
		}
		if err := serialize.EncodeResult(f, doc); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *jsonOut {
		if err := serialize.EncodeReport(os.Stdout, serialize.FromReport(rep, gameName, *eps)); err != nil {
			fmt.Fprintf(os.Stderr, "mixtime: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("game            %s (|S| = %d profiles)\n", gameName, rep.NumProfiles)
	fmt.Printf("beta            %g\n", rep.Beta)
	fmt.Printf("backend         %s\n", rep.Backend)
	if rep.MixingTimeExact {
		fmt.Printf("t_mix(%g)      %d steps\n", *eps, rep.MixingTime)
	} else {
		fmt.Printf("t_mix(%g)      in [%.4g, %.4g] (Theorem 2.3 sandwich; exact d(t) needs the dense backend)\n",
			*eps, rep.SpectralLower, rep.SpectralUpper)
		if !rep.SpectralConverged {
			fmt.Printf("WARNING         Lanczos hit its iteration cap before the Ritz values stabilized;\n")
			fmt.Printf("                lambda*, t_rel and the sandwich are lower bounds, not measurements\n")
		}
	}
	fmt.Printf("t_rel           %.4g\n", rep.RelaxationTime)
	fmt.Printf("lambda*         %.6g   lambda_min %.6g\n", rep.LambdaStar, rep.MinEigenvalue)
	fmt.Printf("pure Nash       %d profiles\n", len(rep.PureNash))
	if rep.DominantProfile != nil {
		fmt.Printf("dominant profile %v\n", rep.DominantProfile)
	}
	if rep.Stats != nil {
		fmt.Printf("potential       ΔΦ=%.4g δΦ=%.4g ζ=%.4g\n",
			rep.Stats.DeltaPhi, rep.Stats.SmallDeltaPhi, rep.Stats.Zeta)
	}
	if rep.Bounds != nil {
		fmt.Printf("Thm 3.4 upper   %.4g\n", rep.Bounds.Thm34Upper)
		if rep.Bounds.Thm36Applies {
			fmt.Printf("Thm 3.6 upper   %.4g (small-β regime)\n", rep.Bounds.Thm36Upper)
		}
		fmt.Printf("Thm 3.8 upper   %.4g\n", rep.Bounds.Thm38Upper)
		fmt.Printf("Thm 3.9 lower   %.4g\n", rep.Bounds.Thm39Lower)
		if rep.Bounds.HasDominantProfile {
			fmt.Printf("Thm 4.2 upper   %.4g (β-independent)\n", rep.Bounds.Thm42Upper)
		}
	}

}

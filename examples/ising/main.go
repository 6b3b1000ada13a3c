// Ising: the δ0 = δ1 graphical coordination game is exactly the
// ferromagnetic Ising model under Glauber dynamics (the paper's Section 5
// connection to Berger et al.). This example draws perfect samples from the
// Gibbs measure with coupling-from-the-past and verifies them against the
// closed form, then compares ring and torus mixing.
package main

import (
	"fmt"
	"log"

	"logitdyn/internal/core"
	"logitdyn/internal/coupling"
	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
)

func main() {
	delta := 1.0
	ring := graph.Ring(8)
	g, err := game.NewIsing(ring, delta)
	if err != nil {
		log.Fatal(err)
	}

	for _, beta := range []float64{0.3, 0.8} {
		d, err := logit.New(g, beta)
		if err != nil {
			log.Fatal(err)
		}
		// Exact sampling by coupling from the past (monotone grand coupling).
		const samples = 5000
		counts, err := coupling.SampleGibbsCFTP(d, samples, rng.New(11), 40)
		if err != nil {
			log.Fatal(err)
		}
		emp := make([]float64, len(counts))
		for i, c := range counts {
			emp[i] = float64(c) / samples
		}
		gibbs, err := d.GibbsPar(linalg.Serial)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("β=%-4g CFTP(%d samples) vs Gibbs: TV = %.4f\n",
			beta, samples, markov.TVDistance(emp, gibbs))
	}

	// Mixing-time comparison: ring C_8 vs torus 3×3 at equal β.
	fmt.Println("\ntopology comparison at β = 0.6:")
	for _, tc := range []struct {
		name string
		soc  *graph.Graph
	}{
		{"ring C8", graph.Ring(8)},
		{"torus 3x3", graph.Torus(3, 3)},
	} {
		gg, err := game.NewIsing(tc.soc, delta)
		if err != nil {
			log.Fatal(err)
		}
		a, err := core.NewAnalyzer(gg, 0.6)
		if err != nil {
			log.Fatal(err)
		}
		tm, err := a.MixingTime(0, 0)
		if err != nil {
			log.Fatal(err)
		}
		cw, _, _ := graph.ExactCutwidth(tc.soc)
		fmt.Printf("%-10s n=%d cutwidth=%d t_mix=%d\n", tc.name, tc.soc.N(), cw, tm)
	}
	fmt.Println("\nhigher cutwidth → slower mixing, as Theorem 5.1 predicts")
}

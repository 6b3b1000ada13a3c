// Diffusion: the Section 5 motivation — spread of a new technology in a
// social network. Players on a graph play a coordination game where
// strategy 1 ("new technology") is risk dominant; we watch how long the
// logit dynamics takes to move the network from the all-old profile to
// mostly-new, and how the stationary measure splits between the two
// conventions at different noise levels.
package main

import (
	"fmt"
	"log"

	"logitdyn/internal/game"
	"logitdyn/internal/graph"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/rng"
)

func main() {
	// A small-world-ish social network: a ring with a few random chords.
	n := 12
	r := rng.New(7)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	chords := 0
	for chords < 3 {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || u == (v+1)%n || v == (u+1)%n {
			continue
		}
		func() {
			defer func() { recover() }() // skip duplicate chords
			b.AddEdge(u, v)
			chords++
		}()
	}
	soc := b.Graph()
	fmt.Printf("social graph: %d agents, %d ties\n", soc.N(), soc.M())

	// New technology (strategy 1) is risk dominant: δ1 > δ0.
	base, err := game.NewCoordination2x2(1, 2, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	g, err := game.NewGraphical(soc, base)
	if err != nil {
		log.Fatal(err)
	}

	for _, beta := range []float64{0.5, 1, 2} {
		d, err := logit.New(g, beta)
		if err != nil {
			log.Fatal(err)
		}
		// Start from everyone using the old technology.
		x := make([]int, n)
		stream := rng.New(uint64(beta * 1000))
		adoptionAt := -1
		const horizon = 2_000_000
		for t := 1; t <= horizon; t++ {
			d.Step(x, stream)
			adopters := 0
			for _, v := range x {
				adopters += v
			}
			if adopters >= n*3/4 {
				adoptionAt = t
				break
			}
		}
		if adoptionAt < 0 {
			fmt.Printf("β=%-4g no 75%% adoption within %d steps\n", beta, horizon)
			continue
		}
		fmt.Printf("β=%-4g 75%% of agents adopted the new technology after %d steps\n", beta, adoptionAt)
	}

	// Stationary split between the two conventions at moderate noise.
	d, _ := logit.New(g, 1)
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		log.Fatal(err)
	}
	sp := d.Space()
	allOld := make([]int, n)
	allNew := make([]int, n)
	for i := range allNew {
		allNew[i] = 1
	}
	fmt.Printf("\nstationary mass at β=1: all-old %.4g, all-new %.4g (risk dominance selects the new convention)\n",
		pi[sp.Encode(allOld)], pi[sp.Encode(allNew)])
}

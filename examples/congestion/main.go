// Congestion: logit dynamics on a singleton congestion game (the class
// whose hitting times Asadpour–Saberi studied, cited in the paper's related
// work). Rosenthal's potential makes it an exact potential game, so all of
// Section 3 applies: we compare the measured mixing time with the Theorem
// 3.4 envelope, watch the Gibbs measure concentrate on the balanced (Nash)
// assignments as β grows, and contrast mixing time with the hitting time of
// the potential minimizer.
package main

import (
	"fmt"
	"log"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/mixing"
)

func main() {
	// 4 drivers choose between 2 roads with different linear delays:
	// d_0(ℓ) = ℓ (fast road), d_1(ℓ) = 1.5·ℓ (slow road).
	n := 4
	g, err := game.NewLinearCongestion(n, []float64{1, 1.5}, []float64{0, 0})
	if err != nil {
		log.Fatal(err)
	}
	st, err := mixing.AnalyzePotentialPar(g, linalg.Serial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("singleton congestion game: %d drivers, 2 roads; ΔΦ=%.3g δΦ=%.3g ζ=%.3g\n\n",
		n, st.DeltaPhi, st.SmallDeltaPhi, st.Zeta)

	ne := game.PureNashEquilibriaPar(g, 1e-12, linalg.Serial)
	fmt.Printf("pure Nash assignments: %d of %d profiles\n\n", len(ne), 1<<uint(n))

	fmt.Printf("%-6s %-12s %-14s %-16s %-18s\n", "beta", "t_mix", "Thm3.4 bound", "pi(Nash set)", "E[hit argmin Phi]")
	for _, beta := range []float64{0.5, 1, 2, 4} {
		a, err := core.NewAnalyzer(g, beta)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := a.Analyze(core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		nashMass := 0.0
		for _, idx := range ne {
			nashMass += rep.Stationary[idx]
		}
		// Hitting time of the set of potential minimizers from the worst
		// start.
		minPhi := st.Phi[0]
		for _, v := range st.Phi {
			if v < minPhi {
				minPhi = v
			}
		}
		target := make([]bool, len(st.Phi))
		for i, v := range st.Phi {
			target[i] = v <= minPhi+1e-12
		}
		hit, err := markov.WorstHittingTime(a.Dynamics().TransitionDensePar(linalg.ParallelConfig{}), target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6g %-12d %-14.4g %-16.4f %-18.4g\n",
			beta, rep.MixingTime, rep.Bounds.Thm34Upper, nashMass, hit)
	}
	fmt.Println("\nhigh β: stationary mass concentrates on the balanced assignments;")
	fmt.Println("the equilibrium *set* is hit quickly even when full mixing is slower")
}

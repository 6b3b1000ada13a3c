// Metastability: the paper's conclusions ask what can be said about the
// *transient* phase when mixing is exponentially slow (the follow-up work
// the authors cite is their SODA'12 metastability paper). This example
// plots the exact worst-case distance d(t) of a double-well chain on a
// logarithmic time axis: the curve drops fast to a plateau — the chain
// equilibrates *within* a well almost immediately — and only collapses to 0
// at the exponential barrier-crossing scale.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/plot"
	"logitdyn/internal/spectral"
)

func main() {
	n, c := 8, 3
	dw, err := game.NewDoubleWell(n, c, 1)
	if err != nil {
		log.Fatal(err)
	}
	beta := 4.0
	d, err := logit.New(dw, beta)
	if err != nil {
		log.Fatal(err)
	}
	pi, err := d.GibbsPar(linalg.Serial)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := spectral.Decompose(d.TransitionDensePar(linalg.ParallelConfig{}), pi)
	if err != nil {
		log.Fatal(err)
	}
	tmix, err := dec.MixingTime(0.25, 1<<60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("double well n=%d c=%d β=%g: t_mix = %d, t_rel = %.4g\n\n",
		n, c, beta, tmix, dec.RelaxationTime())
	fmt.Println("worst-case TV distance d(t) on a log time axis:")
	series := plot.Series{Name: "d(t)"}
	maxExp := math.Log10(float64(tmix)) + 0.5
	lastT := int64(0)
	for e := 0.0; e <= maxExp; e += 0.25 {
		t := int64(math.Pow(10, e))
		if t == lastT {
			continue
		}
		lastT = t
		series.X = append(series.X, float64(t))
		series.Y = append(series.Y, dec.Distance(t))
	}
	if err := plot.LogXChart(os.Stdout, series, 1, 60); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nthe long flat plateau is metastability: the chain looks converged")
	fmt.Println("inside its starting well while true mixing waits for a barrier")
	fmt.Println("crossing at the e^{βΔΦ} scale")
}

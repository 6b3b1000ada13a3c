package mixing

import (
	"reflect"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

// The dense exact route now runs under the same worker budget as every
// other hot path (the former "known wart"): the transition build and the
// d(t) sweep thread par instead of defaulting to GOMAXPROCS. The budget
// must never change a single reported value — workers=1 and workers=8
// must agree on every field, including the searched mixing time.
func TestExactMixingTimeWorkerInvariant(t *testing.T) {
	games := map[string]game.Game{}
	dw, err := game.NewDoubleWell(9, 3, 1.0) // 512 profiles: real shard splits
	if err != nil {
		t.Fatal(err)
	}
	games["doublewell-512"] = dw
	coord, err := game.NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	games["coordination"] = coord

	for name, g := range games {
		t.Run(name, func(t *testing.T) {
			d, err := logit.New(g, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(workers int) *Result {
				res, err := ExactMixingTimePar(d, 0.25, 1<<62,
					linalg.ParallelConfig{Workers: workers, MinRows: 1})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			one, eight := measure(1), measure(8)
			if !reflect.DeepEqual(one, eight) {
				t.Fatalf("workers=1 and workers=8 disagree:\n%+v\nvs\n%+v", one, eight)
			}
		})
	}
}

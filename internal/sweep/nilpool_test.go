package sweep

import (
	"bytes"
	"context"
	"testing"

	"logitdyn/internal/spec"
)

// fakePool is a pointer-receiver TokenPool so a nil *fakePool stored in
// the interface is the classic typed-nil trap: pool != nil compares true,
// every method call panics.
type fakePool struct{}

func (p *fakePool) Run(fn func())                         { fn() }
func (p *fakePool) TryExtra(max int) (int, func())        { return 0, func() {} }
func (p *fakePool) Workers() int                          { return 1 }
func (p *fakePool) RunCtx(ctx context.Context, fn func()) { fn() }

func TestPoolOrNil(t *testing.T) {
	if got := poolOrNil(nil); got != nil {
		t.Fatal("untyped nil not normalized")
	}
	if got := poolOrNil((*fakePool)(nil)); got != nil {
		t.Fatal("typed nil not normalized")
	}
	real := &fakePool{}
	if got := poolOrNil(real); got != TokenPool(real) {
		t.Fatal("live pool mangled")
	}
}

// The regression itself: a typed-nil TokenPool (e.g. an unset
// bench.Executor.Pool field) must run the sweep serially, not panic in
// RunCtx on a nil receiver.
func TestDirectEvalTypedNilPool(t *testing.T) {
	grid := &Grid{
		Name: "nilpool",
		Axes: Axes{Beta: &Schedule{From: 0.5, To: 1, Steps: 2}},
		Base: spec.Spec{Game: "doublewell", N: 4, C: 2, Delta1: 1},
	}
	var nilPool *fakePool
	r := &Runner{Eval: DirectEvalScratch(nil, nilPool, nil), Workers: 2}
	res, stats, err := r.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 || len(res.Rows) != 2 {
		t.Fatalf("typed-nil pool run: stats=%+v rows=%d", stats, len(res.Rows))
	}

	// Bit-identical to a run with no pool at all.
	withNil, _ := runAll(t, nil, grid)
	var a, b bytes.Buffer
	if err := EncodeJSON(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&b, withNil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("typed-nil pool changed output bytes")
	}
}

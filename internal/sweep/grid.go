// Package sweep is the orchestration engine for experiment grids: a
// declarative multi-axis sweep over game families, topologies, sizes and β
// schedules is expanded deterministically into grid points, deduplicated
// by canonical content hash, executed with bounded parallelism against the
// persistent report store (points whose reports are already stored are
// never re-analyzed, which makes killed runs resumable), and aggregated
// into summary tables — the paper's results-over-families workflow as a
// reusable subsystem.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"logitdyn/internal/core"
	"logitdyn/internal/logit"
	"logitdyn/internal/spec"
)

// GridVersion tags the grid-file format.
const GridVersion = 1

// DefaultMaxPoints bounds a grid expansion unless the caller raises it.
const DefaultMaxPoints = 4096

// Schedule is a β axis: either an explicit list of values or a generated
// range. In JSON it is spelled as an array ([0.5, 1, 2]) or an object
// ({"from": 0.5, "to": 4, "steps": 8, "scale": "linear"|"log"}).
type Schedule struct {
	// Values is the explicit list; when non-nil it wins over the range.
	Values []float64
	// From..To in Steps points; Steps == 1 yields just From. The "log"
	// scale spaces points geometrically and requires From, To > 0.
	From, To float64
	Steps    int
	Scale    string
}

// scheduleDoc is the object spelling of a Schedule.
type scheduleDoc struct {
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Steps int     `json:"steps"`
	Scale string  `json:"scale,omitempty"`
}

// UnmarshalJSON accepts an array of values or a range object.
func (s *Schedule) UnmarshalJSON(b []byte) error {
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var vals []float64
		if err := json.Unmarshal(b, &vals); err != nil {
			return fmt.Errorf("sweep: beta axis: %w", err)
		}
		*s = Schedule{Values: vals}
		return nil
	}
	var doc scheduleDoc
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("sweep: beta axis: %w", err)
	}
	*s = Schedule{From: doc.From, To: doc.To, Steps: doc.Steps, Scale: doc.Scale}
	return nil
}

// MarshalJSON writes the array spelling for explicit values and the object
// spelling for ranges.
func (s Schedule) MarshalJSON() ([]byte, error) {
	if s.Values != nil {
		return json.Marshal(s.Values)
	}
	return json.Marshal(scheduleDoc{From: s.From, To: s.To, Steps: s.Steps, Scale: s.Scale})
}

// Expand returns the schedule's values in order. Expansion is pure
// arithmetic over the schedule fields, so the same schedule always yields
// bit-identical values.
func (s Schedule) Expand() ([]float64, error) {
	if s.Values != nil {
		if len(s.Values) == 0 {
			return nil, fmt.Errorf("sweep: beta axis: empty value list")
		}
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sweep: beta axis: non-finite value %v", v)
			}
		}
		return s.Values, nil
	}
	if s.Steps < 1 {
		return nil, fmt.Errorf("sweep: beta axis: steps must be >= 1, got %d", s.Steps)
	}
	if math.IsNaN(s.From) || math.IsInf(s.From, 0) || math.IsNaN(s.To) || math.IsInf(s.To, 0) {
		return nil, fmt.Errorf("sweep: beta axis: non-finite range [%v, %v]", s.From, s.To)
	}
	var out []float64
	switch s.Scale {
	case "", "linear":
		out = make([]float64, s.Steps)
		if s.Steps == 1 {
			out[0] = s.From
			break
		}
		step := (s.To - s.From) / float64(s.Steps-1)
		for i := range out {
			out[i] = s.From + float64(i)*step
		}
		out[s.Steps-1] = s.To
	case "log":
		if s.From <= 0 || s.To <= 0 {
			return nil, fmt.Errorf("sweep: beta axis: log scale needs from, to > 0, got [%v, %v]", s.From, s.To)
		}
		out = make([]float64, s.Steps)
		if s.Steps == 1 {
			out[0] = s.From
			break
		}
		ratio := math.Log(s.To / s.From)
		for i := range out {
			out[i] = s.From * math.Exp(ratio*float64(i)/float64(s.Steps-1))
		}
		out[s.Steps-1] = s.To
	default:
		return nil, fmt.Errorf("sweep: beta axis: unknown scale %q (linear|log)", s.Scale)
	}
	// Finite endpoints don't guarantee finite interpolants: to−from can
	// overflow to +Inf, whose 0·Inf first step is NaN. Fail the schedule,
	// not the arithmetic.
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sweep: beta axis: schedule produces non-finite value %v", v)
		}
	}
	return out, nil
}

// Axes are the swept dimensions. An empty axis keeps the Base spec's value
// for that field; Beta is the one axis every grid must declare. Every
// numeric spec field is sweepable — the δ-parameters, the asymmetric-well
// depths, the random-family scale and seed, the grid/torus shape — plus
// Eps, which sweeps the analysis target rather than the game. Dedup is
// untouched by which axis produced a point: keys are derived from the
// materialized game content, β and the normalized options, so two axes
// spelling the same game collapse to one analysis.
type Axes struct {
	Game  []string `json:"game,omitempty"`
	Graph []string `json:"graph,omitempty"`
	N     []int    `json:"n,omitempty"`
	M     []int    `json:"m,omitempty"`
	C     []int    `json:"c,omitempty"`
	// Rows and Cols shape grid/torus graphs.
	Rows []int `json:"rows,omitempty"`
	Cols []int `json:"cols,omitempty"`
	// Delta0/Delta1 are the coordination payoff gaps (Delta1 doubles as
	// the Ising coupling δ); Depth/Shallow parameterize the asymmetric
	// double well; Scale is the random-potential amplitude.
	Delta0  []float64 `json:"delta0,omitempty"`
	Delta1  []float64 `json:"delta1,omitempty"`
	Depth   []float64 `json:"depth,omitempty"`
	Shallow []float64 `json:"shallow,omitempty"`
	Scale   []float64 `json:"scale,omitempty"`
	// Seed sweeps random constructions (seed replicates of one family).
	Seed []uint64 `json:"seed,omitempty"`
	// Eps sweeps the total-variation target of the analysis itself; values
	// must lie in (0, 1). An empty axis uses the grid-level Eps.
	Eps  []float64 `json:"eps,omitempty"`
	Beta *Schedule `json:"beta,omitempty"`
}

// Grid declares one sweep: the cross product of the axes over a base spec,
// analyzed with one (eps, max_t, backend) option set.
type Grid struct {
	Version int    `json:"version,omitempty"`
	Name    string `json:"name,omitempty"`
	Axes    Axes   `json:"axes"`
	// Base supplies the spec fields no axis overrides (δ-parameters, seed,
	// rows/cols, default family, …).
	Base spec.Spec `json:"base,omitempty"`
	// Eps, MaxT and Backend are the analysis options for every point; zero
	// values mean the library defaults (auto-routed backend).
	Eps     float64 `json:"eps,omitempty"`
	MaxT    int64   `json:"max_t,omitempty"`
	Backend string  `json:"backend,omitempty"`
}

// Point is one expanded grid point: a fully-resolved spec plus β and the
// analysis target, at its position in the canonical expansion order.
type Point struct {
	Index int
	Spec  spec.Spec
	Beta  float64
	// Eps is the point's TV target; 0 means the grid-level Eps.
	Eps float64
}

// ParseGrid strictly decodes a grid file.
func ParseGrid(r io.Reader) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: grid: %w", err)
	}
	if g.Version != 0 && g.Version != GridVersion {
		return nil, fmt.Errorf("sweep: unsupported grid version %d", g.Version)
	}
	return &g, nil
}

// axisLen is an axis's contribution to the point count (an empty axis
// contributes one combination: the base value).
func axisLen(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// checkAxisFloats rejects non-finite values on a float axis.
func checkAxisFloats(name string, vals []float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sweep: %s axis: non-finite value %v", name, v)
		}
	}
	return nil
}

// validate checks the non-combinatorial parts of the grid against the
// point cap and returns the expanded β schedule. The cap gates the β
// expansion itself: a generated schedule's Steps is an attacker-sized
// allocation, so it must be bounded BEFORE any slice is made.
func (g *Grid) validate(maxPoints int) ([]float64, error) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	if g.Version != 0 && g.Version != GridVersion {
		return nil, fmt.Errorf("sweep: unsupported grid version %d", g.Version)
	}
	if g.Axes.Beta == nil {
		return nil, fmt.Errorf("sweep: grid declares no beta axis (\"axes\": {\"beta\": [...] or {\"from\":..,\"to\":..,\"steps\":..}})")
	}
	if g.Axes.Beta.Steps > maxPoints {
		return nil, fmt.Errorf("sweep: beta axis steps %d exceed the point cap %d", g.Axes.Beta.Steps, maxPoints)
	}
	if _, err := logit.ParseBackend(g.Backend); err != nil {
		return nil, err
	}
	if err := (core.Options{Eps: g.Eps, MaxT: g.MaxT}).Validate(); err != nil {
		return nil, fmt.Errorf("sweep: grid: %w", err)
	}
	for name, vals := range map[string][]float64{
		"delta0": g.Axes.Delta0, "delta1": g.Axes.Delta1,
		"depth": g.Axes.Depth, "shallow": g.Axes.Shallow, "scale": g.Axes.Scale,
	} {
		if err := checkAxisFloats(name, vals); err != nil {
			return nil, err
		}
	}
	for _, e := range g.Axes.Eps {
		if math.IsNaN(e) || e <= 0 || e >= 1 {
			return nil, fmt.Errorf("sweep: eps axis values must be in (0, 1), got %v", e)
		}
	}
	return g.Axes.Beta.Expand()
}

// axes returns the swept dimensions in their canonical nesting order —
// outermost first, β always innermost — as (length, apply) pairs. The
// order is part of the grid contract: the same grid file always expands
// to the identical point list.
func (g *Grid) axes(betas []float64) []axisSetter {
	ax := &g.Axes
	return []axisSetter{
		{len(ax.Game), func(p *Point, i int) { p.Spec.Game = ax.Game[i] }},
		{len(ax.Graph), func(p *Point, i int) { p.Spec.Graph = ax.Graph[i] }},
		{len(ax.N), func(p *Point, i int) { p.Spec.N = ax.N[i] }},
		{len(ax.M), func(p *Point, i int) { p.Spec.M = ax.M[i] }},
		{len(ax.C), func(p *Point, i int) { p.Spec.C = ax.C[i] }},
		{len(ax.Rows), func(p *Point, i int) { p.Spec.Rows = ax.Rows[i] }},
		{len(ax.Cols), func(p *Point, i int) { p.Spec.Cols = ax.Cols[i] }},
		{len(ax.Delta0), func(p *Point, i int) { p.Spec.Delta0 = ax.Delta0[i] }},
		{len(ax.Delta1), func(p *Point, i int) { p.Spec.Delta1 = ax.Delta1[i] }},
		{len(ax.Depth), func(p *Point, i int) { p.Spec.Depth = ax.Depth[i] }},
		{len(ax.Shallow), func(p *Point, i int) { p.Spec.Shallow = ax.Shallow[i] }},
		{len(ax.Scale), func(p *Point, i int) { p.Spec.Scale = ax.Scale[i] }},
		{len(ax.Seed), func(p *Point, i int) { p.Spec.Seed = ax.Seed[i] }},
		{len(ax.Eps), func(p *Point, i int) { p.Eps = ax.Eps[i] }},
		{len(betas), func(p *Point, i int) { p.Beta = betas[i] }},
	}
}

// axisSetter is one swept dimension: its declared length (0 = not swept)
// and the field it writes.
type axisSetter struct {
	n     int
	apply func(p *Point, i int)
}

// countPoints applies the cap to the axis cross product (overflow-safe:
// the running product is checked after every factor).
func (g *Grid) countPoints(betas []float64, maxPoints int) (int, error) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	total := 1
	for _, s := range g.axes(betas) {
		total *= axisLen(s.n)
		if total > maxPoints {
			return 0, fmt.Errorf("sweep: grid expands to more than %d points (cap %d)", total, maxPoints)
		}
	}
	return total, nil
}

// Points is the exact number of grid points Expand would produce.
func (g *Grid) Points(maxPoints int) (int, error) {
	betas, err := g.validate(maxPoints)
	if err != nil {
		return 0, err
	}
	return g.countPoints(betas, maxPoints)
}

// Expand produces the grid points in canonical order — axes nest
// game → graph → n → m → c → rows → cols → δ0 → δ1 → depth → shallow →
// scale → seed → eps → β, each in declaration order — so the same grid
// file always expands to the identical point list. maxPoints <= 0 applies
// DefaultMaxPoints.
func (g *Grid) Expand(maxPoints int) ([]Point, error) {
	betas, err := g.validate(maxPoints)
	if err != nil {
		return nil, err
	}
	total, err := g.countPoints(betas, maxPoints)
	if err != nil {
		return nil, err
	}
	setters := g.axes(betas)
	idx := make([]int, len(setters))
	points := make([]Point, 0, total)
	for count := 0; count < total; count++ {
		p := Point{Index: count, Spec: g.Base}
		for ai, s := range setters {
			if s.n > 0 {
				s.apply(&p, idx[ai])
			}
		}
		points = append(points, p)
		// Mixed-radix increment, innermost (β) axis fastest.
		for ai := len(setters) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < axisLen(setters[ai].n) {
				break
			}
			idx[ai] = 0
		}
	}
	return points, nil
}

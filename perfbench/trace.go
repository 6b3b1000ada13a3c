package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// measured op share Op; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name and returns the span's duration. fn
// receives the span's index, to parent the spans it opens.
func (t *tracer) do(name string, parent, op int, fn func(id int)) time.Duration {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id].Start = int64(start.Sub(t.t0))
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
	return end.Sub(start)
}

// leaf is do for a span that opens no children.
func (t *tracer) leaf(name string, parent, op int, fn func()) time.Duration {
	return t.do(name, parent, op, func(int) { fn() })
}

// selfTimes sums each span name's self time (its duration minus the time
// its children cover) per op, in ms: result[name][op].
func (t *tracer) selfTimes() map[string]map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]map[int]float64{}
	for i, s := range t.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.Op] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// perOp lists name's per-op self times (ms) for the given ops, skipping
// ops that recorded no such span.
func perOp(self map[string]map[int]float64, name string, ops []int) []float64 {
	var xs []float64
	for _, op := range ops {
		if v, ok := self[name][op]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func (t *tracer) write(path string, h host) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one operation share Op; Parent is
// the span that caused this one (0 for an operation's root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer collects spans in memory; write dumps them when the benchmark
// ends. All spans are recorded from bench/ code: around direct calls, from
// the public progress callback, and from the embedder, filesystem and
// handler wrappers. A nil *tracer records nothing, so untraced operations
// run the same call sites without the clock reads.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	workload string
	op       int

	// Parents for spans that arrive through a seam with no call-site
	// context: embed calls belong to the running match phase, filesystem
	// calls to the write request being handled.
	matchSpan atomic.Int64
	writeSpan atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(workload, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.workload = workload
	t.op++
	t.mu.Unlock()
	return t.begin(0, "bench", name)
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Workload: t.workload, Layer: layer, Name: name, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels an open span once what it covered is known.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// opSpans returns the spans of the operation whose root span is root.
func (t *tracer) opSpans(root int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.spans[root-1].Op
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// validate checks the span tree: every span is closed, every child lies
// inside its parent and shares its operation id.
func (t *tracer) validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s/%s) never closed", s.ID, s.Layer, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		if s.Op != p.Op {
			return fmt.Errorf("trace: span %d (%s/%s) is in operation %d, its parent %d in %d", s.ID, s.Layer, s.Name, s.Op, p.ID, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("trace: span %d (%s/%s) [%d,%d] leaves its parent %d (%s/%s) [%d,%d]",
				s.ID, s.Layer, s.Name, s.Start, s.End, p.ID, p.Layer, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// spanTimes summarises the spans of one operation.
type spanTimes struct {
	self  map[string]float64 // layer -> seconds of self time, summed over its spans
	busy  map[string]float64 // layer -> seconds of span duration, summed
	count map[string]int     // layer -> spans
	root  float64            // the root span's self time: what no layer span covers
	spans []span
}

// analyse computes per-layer self and busy time for one operation. A span's
// self time is its duration minus the part of it its children cover
// (children of concurrent callers overlap, so coverage is an interval
// union, not a sum).
func analyse(spans []span) spanTimes {
	st := spanTimes{self: map[string]float64{}, busy: map[string]float64{}, count: map[string]int{}, spans: spans}
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		self := (dur - covered(children[s.ID])) / 1e9
		st.busy[s.Layer] += dur / 1e9
		st.count[s.Layer]++
		if s.Parent == 0 {
			st.root = self
			continue
		}
		st.self[s.Layer] += self
	}
	return st
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total := int64(0)
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		hi = max(hi, s.End)
	}
	return float64(total + hi - lo)
}

// named returns the durations in seconds of the spans with this layer and name.
func (st spanTimes) named(layer, name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

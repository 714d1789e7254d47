package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Parent is the id of the span that caused
// it (-1 for a root); spans of one op share Op; Track separates the TCP ranks
// of one op in the trace viewer.
type span struct {
	ID, Parent int
	Name       string
	Op, Track  int
	Start, End time.Duration // since the tracer was created
	Args       map[string]any
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, which is how the untraced ops run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Track: track, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// now is the tracer's clock, for spans recorded after the fact with add.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// add records a span whose interval the caller measured itself (the epochs
// between two WithProgress callbacks).
func (t *tracer) add(name string, parent, op, track int, start, end time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Op: op, Track: track, Start: start, End: end, Args: args})
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover (children may overlap each other, as the two TCP rank
// tracks do; the covered part is the union).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans in Chrome trace-event format (load in
// chrome://tracing or ui.perfetto.dev): one complete event per span, with its
// id, parent, op and self time as arguments.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	events := make([]map[string]any, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_us": us(self[s.ID])}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Track,
			"ts": us(s.Start), "dur": us(s.End - s.Start), "args": args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

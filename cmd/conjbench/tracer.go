package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one traced call: a named interval of one op, with the span
// that caused it (0 for an op's root). Lane separates concurrent workers
// in the trace viewer.
type span struct {
	ID, Parent, Op, Lane int
	Name                 string
	Start, End           time.Duration // since the tracer's epoch
}

// layer is the module a span's time is attributed to: the span name up to
// its first dot ("reduce.predicate" counts as reduce).
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps every span in memory until the run ends. The serial
// replay pushes and pops spans on a stack (open); concurrent clients
// record finished spans with explicit parents (add). A nil tracer records
// nothing, which is how the end-to-end runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int // open spans of the serial replay, innermost last
	op    int   // op id stamped on spans opened by open
	// bookkeeping is the time spent inside the tracer itself: the
	// overhead tracing adds to the traced run.
	bookkeeping time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp starts attributing opened spans to op.
func (t *tracer) beginOp(op int) {
	if t != nil {
		t.op = op
	}
}

// open starts a span under the innermost open one and returns the
// function that ends it. It is for the single replay goroutine only.
func (t *tracer) open(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	enter := time.Now()
	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	t.bookkeeping += time.Since(enter)
	t.mu.Unlock()
	return func() {
		leave := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = leave.Sub(t.epoch)
		t.stack = t.stack[:len(t.stack)-1]
		t.bookkeeping += time.Since(leave)
		t.mu.Unlock()
	}
}

// add records a finished span and returns its id; safe for concurrent use.
func (t *tracer) add(name string, op, parent, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	enter := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.bookkeeping += time.Since(enter)
	return id
}

// selfTimes sums, per layer, every span's duration minus the union of its
// children's intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer()] += SelfTime(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}

// traceEvent is one complete ("X") event of the Chrome trace-event format
// that chrome://tracing and Perfetto open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeFile writes the spans as a Chrome trace-event JSON file.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, traceEvent{Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": s.ID, "op": s.Op, "parent": s.Parent}})
	}
	t.mu.Unlock()
	body, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run: a call into one layer, or
// (Parent == -1) the whole operation that caused it.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out
// only when the run ends. Spans are recorded from the benchmark's own
// files, around the calls into each layer — nothing inside the engine is
// instrumented.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is a boundary timestamp. Consecutive layer calls of one operation
// share their boundary, so an operation costs one clock read per boundary
// and its children tile the root span exactly.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores one operation: a root span from the first to the last
// mark, and one child per pair of consecutive marks. A child with an
// empty name is a step the operation skipped (a plan-cache hit skips
// plan.choose) and leaves no span.
func (t *tracer) record(root string, marks []int64, children []string) {
	op := t.ops
	t.ops++
	rootID := len(t.spans)
	t.spans = append(t.spans, span{Name: root, Op: op, ID: rootID, Parent: -1, Start: marks[0], End: marks[len(marks)-1]})
	for i, name := range children {
		if name == "" {
			continue
		}
		t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: rootID, Start: marks[i], End: marks[i+1]})
	}
}

// telescopeErrPct is the largest share of any operation's root span that
// its layer spans leave unaccounted for, in percent. (A span's self time
// is its duration minus what its children cover; the layers' self times
// must add up to the operation.)
func (t *tracer) telescopeErrPct() float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	worst := 0.0
	for _, s := range t.spans {
		if s.Parent >= 0 || s.End == s.Start {
			continue
		}
		dur := float64(s.End - s.Start)
		gap := (dur - float64(covered[s.ID])) / dur * 100
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans in memory, one lane per goroutine that emits them: a
// lane is only ever written by one goroutine at a time, so recording takes
// no lock. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

// lane holds one goroutine's spans. Spans nest: a span's parent is the span
// open on the same lane when it began.
type lane struct {
	name  string
	spans []span
	open  []int32
	total map[string]time.Duration // summed duration per span name
	count map[string]int
}

type span struct {
	name       string
	parent     int32 // index into the lane's spans, -1 for a top-level span
	start, end time.Duration
}

func newTracer(laneNames ...string) *tracer {
	t := &tracer{t0: time.Now()}
	for _, n := range laneNames {
		t.lanes = append(t.lanes, &lane{name: n, total: map[string]time.Duration{}, count: map[string]int{}})
	}
	return t
}

// begin opens a span on lane l.
func (t *tracer) begin(l int, name string) {
	if t == nil {
		return
	}
	ln := t.lanes[l]
	parent := int32(-1)
	if len(ln.open) > 0 {
		parent = ln.open[len(ln.open)-1]
	}
	ln.spans = append(ln.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	ln.open = append(ln.open, int32(len(ln.spans)-1))
}

// end closes the innermost open span on lane l.
func (t *tracer) end(l int) {
	if t == nil {
		return
	}
	ln := t.lanes[l]
	i := ln.open[len(ln.open)-1]
	ln.open = ln.open[:len(ln.open)-1]
	s := &ln.spans[i]
	s.end = time.Since(t.t0)
	ln.total[s.name] += s.end - s.start
	ln.count[s.name]++
}

// total sums a span name's duration and count over every lane.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, ln := range t.lanes {
		d += ln.total[name]
		n += ln.count[name]
	}
	return d, n
}

// meanMs is a span name's mean duration in milliseconds (0 when it never
// ran).
func (t *tracer) meanMs(name string) float64 {
	d, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(d) / 1e6 / float64(n)
}

// topLevel sums the duration of lane l's top-level spans.
func (t *tracer) topLevel(l int) time.Duration {
	var d time.Duration
	for _, s := range t.lanes[l].spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

// maxTraceEvents bounds the spans written out, shared equally by the lanes,
// keeping trace files small.
const maxTraceEvents = 200000

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto), one thread per lane.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write trace: %w", cerr)
		}
	}()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	n := 0
	emit := func(e event) error {
		if n > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		n++
		return enc.Encode(e)
	}
	for tid, ln := range t.lanes {
		if err := emit(event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": ln.name}}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	perLane := maxTraceEvents / max(1, len(t.lanes))
	for tid, ln := range t.lanes {
		for _, s := range ln.spans[:min(len(ln.spans), perLane)] {
			e := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: tid}
			if s.parent >= 0 {
				e.Args = map[string]any{"parent": ln.spans[s.parent].name}
			}
			if err := emit(e); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one op share Req; Parent indexes the enclosing span
// (-1 for the op's root).
type Span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced path runs the same code with tracing off.
// A Tracer is used from one goroutine.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  []int // stack of unfinished span indexes
	req   int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin starts a new op (request); its spans share a fresh request id.
func (t *Tracer) Begin() {
	if t != nil {
		t.req++
	}
}

// Start opens a span nested in the innermost open one.
func (t *Tracer) Start(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n-1]
}

// Span times fn as one span.
func (t *Tracer) Span(name string, fn func()) {
	t.Start(name)
	fn()
	t.End()
}

// SpanStat aggregates every span of one name.
type SpanStat struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// MeanSelfUS is the mean self time per span in microseconds.
func (s SpanStat) MeanSelfUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count) / float64(time.Microsecond)
}

// Stats folds the spans by name. A span's self time is its duration minus
// the part of its interval its direct children cover (children of one span
// run one after another, so their union is their clipped sum).
func (t *Tracer) Stats() map[string]SpanStat {
	out := make(map[string]SpanStat)
	if t == nil {
		return out
	}
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = st
	}
	return out
}

// Write dumps every span as one JSON object per line.
func (t *Tracer) Write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

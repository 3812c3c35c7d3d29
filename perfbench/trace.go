package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Times are offsets from the tracer's epoch. Spans of one request (a
// served job, a sampled window) share Req.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: Begin returns a zero handle and End does nothing,
// so call sites need no branches.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SpanRef is an open span; End closes it.
type SpanRef struct {
	t  *Tracer
	id int
}

// ID is the span's identifier, for use as a child's parent (0 when
// tracing is off).
func (s SpanRef) ID() int { return s.id }

// Begin opens a span named name under parent (0 for a root span).
func (t *Tracer) Begin(parent int, name, req string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return SpanRef{t: t, id: len(t.spans)}
}

// End closes the span.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by ivs clipped to [lo, hi).
// Overlapping intervals count once.
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval its direct children cover. Children that overlap each
// other (concurrent calls) are counted once, and a child running past
// its parent's end is clipped to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - unionLen(kids[s.ID], s.Start, s.End)
	}
	return out
}

// Coverage is the share of [lo, hi) covered by spans whose parent is
// parent (the layer calls directly under one workload span).
func Coverage(spans []Span, parent int, lo, hi time.Duration) float64 {
	if hi <= lo {
		return 0
	}
	var ivs []interval
	for _, s := range spans {
		if s.Parent == parent {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return float64(unionLen(ivs, lo, hi)) / float64(hi-lo)
}

// totalTime sums the durations of every span named name.
func totalTime(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

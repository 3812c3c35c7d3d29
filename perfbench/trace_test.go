package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		// Two concurrent children overlapping on [20, 40): the union
		// [10, 50) is 40ms, not 30+30.
		{ID: 2, Parent: 1, Name: "child", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(20), End: ms(50)},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: ms(90), End: ms(130)},
		// A grandchild is its child's business, not the parent's.
		{ID: 5, Parent: 2, Name: "grandchild", Start: ms(15), End: ms(25)},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"parent":     ms(100 - 40 - 10),
		"child":      ms(30-10) + ms(30),
		"late":       ms(40),
		"grandchild": ms(10),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfTimeNestedChildContainedInSibling(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(9)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(3)},
	}
	if got := SelfTimes(spans)["p"]; got != ms(2) {
		t.Errorf("self(p) = %v, want 2ms", got)
	}
}

func TestCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(0), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 2, Name: "deep", Start: ms(60), End: ms(90)}, // not a direct child
	}
	if got := Coverage(spans, 1, ms(0), ms(100)); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if got := Coverage(spans, 1, ms(50), ms(100)); got != 0 {
		t.Errorf("coverage of an uncovered window = %v, want 0", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Begin(0, "x", "")
	s.End()
	if s.ID() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	ran := false
	tr.do(0, "x", "", func(int) { ran = true })
	if !ran {
		t.Fatal("nil tracer skipped the call")
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	tr.do(0, "outer", "r1", func(id int) {
		tr.do(id, "inner", "r1", func(int) {})
	})
	open := tr.Begin(0, "unclosed", "")
	_ = open
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Req != "r1" || spans[0].End < spans[1].End {
		t.Errorf("bad span tree: %+v", spans)
	}
}

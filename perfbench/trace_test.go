package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two concurrent children overlapping on [30, 40): the parent is
		// covered over [10, 60), not for 30+30 units.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		// Runs past the parent's end: only [90, 100) covers it.
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		// A grandchild covers its own parent, not the root.
		{ID: 4, Parent: 1, Name: "d", Start: 12, End: 20},
		// Left open: contributes nothing.
		{ID: 5, Parent: 0, Name: "e", Start: 70, End: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	self, total := layerTimes(spans)
	if self["root"] != 40e-6 || total["c"] != 30e-6 {
		t.Errorf("layerTimes: self root %g ms, total c %g ms", self["root"], total["c"])
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	// Nested, non-overlapping spans: the self times partition the root.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 1000},
		{ID: 1, Parent: 0, Start: 100, End: 600},
		{ID: 2, Parent: 1, Start: 200, End: 300},
		{ID: 3, Parent: 0, Start: 600, End: 900},
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.start("root", -1, ""), func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Errorf("nil tracer: ran=%v spans=%v", ran, tr.snapshot())
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced runs pass nil and pay one
// branch per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.start(name, parent, "")
	f()
	t.end(id)
}

// adopt appends spans another process recorded in nanoseconds of the Unix
// clock, each naming one of this tracer's spans as its parent: a server
// process's handler span names the client span of the request it served.
// Spans without such a parent are dropped.
func (t *tracer) adopt(spans []span) {
	if t == nil {
		return
	}
	off := t.t0.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= n || s.End < 0 {
			continue
		}
		s.ID, s.Start, s.End = len(t.spans), s.Start-off, s.End-off
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (concurrent
// requests under one parent), so the covered part is the union of their
// intervals, clipped to the parent. Spans left open count as zero.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// [lo, hi).
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTimes sums self time and total duration per span name, in
// milliseconds.
func layerTimes(spans []span) (self, total map[string]float64) {
	st := selfTimes(spans)
	self, total = map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += float64(st[i]) / 1e6
		total[s.Name] += float64(s.End-s.Start) / 1e6
	}
	return self, total
}

// spanCost measures what recording one span costs on this host, so the
// traced run can state its own overhead without a second, untraced run.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibrate", -1, ""))
	}
	return time.Since(start) / n
}

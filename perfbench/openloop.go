package main

import (
	"sync"
	"time"
)

// arrival is one request of an open-loop schedule: when it is due,
// measured from the start of its phase, and what to send.
type arrival struct {
	Due  time.Duration
	Kind string
	Key  int
}

// outcome is what became of one arrival. Late is how far behind schedule
// the generator dispatched it; Latency runs from when it was due, not from
// when it was sent, so a stall that delays later requests is charged to
// them.
type outcome struct {
	arrival
	Late    time.Duration
	Latency time.Duration
	Status  int
}

// runOpenLoop dispatches every arrival at its due time, measured from
// start, whether or not earlier requests have completed, and returns once
// all have. send runs on a goroutine of its own per request; it returns the
// request's status. The goroutine count is bounded by the schedule length.
func runOpenLoop(start time.Time, arrivals []arrival, send func(arrival) int) []outcome {
	out := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		if d := a.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - a.Due
		wg.Add(1)
		go func(i int, a arrival, late time.Duration) {
			defer wg.Done()
			st := send(a)
			out[i] = outcome{arrival: a, Late: late, Latency: time.Since(start) - a.Due, Status: st}
		}(i, a, late)
	}
	wg.Wait()
	return out
}

// latenessMs returns every outcome's generator lateness in milliseconds.
func latenessMs(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o.Late) / 1e6
	}
	return xs
}

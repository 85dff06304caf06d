package main

import (
	"testing"
	"time"
)

func TestOpenLoopChargesLatenessToRequests(t *testing.T) {
	// The schedule started 50ms ago, as if the generator had stalled:
	// every arrival is already late by 50ms minus its offset, and its
	// latency runs from when it was due, so the stall shows in both.
	start := time.Now().Add(-50 * time.Millisecond)
	as := []arrival{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}}
	outs := runOpenLoop(start, as, func(arrival) int {
		time.Sleep(5 * time.Millisecond)
		return 200
	})
	for i, o := range outs {
		stall := 50*time.Millisecond - as[i].Due
		if o.Late < stall {
			t.Errorf("arrival %d: late %v, want >= %v", i, o.Late, stall)
		}
		if o.Latency < o.Late+5*time.Millisecond {
			t.Errorf("arrival %d: latency %v does not include lateness %v plus service", i, o.Latency, o.Late)
		}
		if o.Status != 200 {
			t.Errorf("arrival %d: status %d", i, o.Status)
		}
	}
}

func TestOpenLoopDoesNotWaitForCompletions(t *testing.T) {
	// Ten arrivals 2ms apart, each served for 40ms: an open loop sends
	// them all on schedule, so the run takes ~60ms, not 400ms, and no
	// arrival is dispatched late by a service time.
	var as []arrival
	for i := 0; i < 10; i++ {
		as = append(as, arrival{Due: time.Duration(i) * 2 * time.Millisecond})
	}
	t0 := time.Now()
	outs := runOpenLoop(time.Now(), as, func(arrival) int {
		time.Sleep(40 * time.Millisecond)
		return 200
	})
	if d := time.Since(t0); d > 250*time.Millisecond {
		t.Errorf("open loop took %v: it waited for completions", d)
	}
	for i, o := range outs {
		if o.Late > 20*time.Millisecond {
			t.Errorf("arrival %d dispatched %v late", i, o.Late)
		}
		if o.Latency < 40*time.Millisecond {
			t.Errorf("arrival %d: latency %v shorter than its service time", i, o.Latency)
		}
	}
}

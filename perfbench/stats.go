package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// ladder lists the percentiles a tail may be reported at, lowest first.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// percentile returns the nearest-rank q-th percentile of xs (0 < q <= 100).
// xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value, averaging the two middle values of an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest ladder percentile with at least minBeyond
// of n samples beyond it, or 0 when even the median lacks them.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if (1-q/100)*float64(n) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// dist summarises one latency population: its median and its highest
// reportable tail, each with the sample count it rests on.
type dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailQ  float64 `json:"tail_q,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Beyond int     `json:"beyond_tail,omitempty"`
}

func summarise(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = median(xs)
	if q := tailPercentile(len(xs)); q > 50 {
		d.TailQ = q
		d.Tail = percentile(xs, q)
		d.Beyond = len(xs) - int(math.Ceil(q/100*float64(len(xs))))
	}
	return d
}

package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummariseReportsCountsBeyondTail(t *testing.T) {
	for _, n := range []int{20, 45, 200, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		d := summarise(xs)
		if d.N != n {
			t.Fatalf("n=%d: N = %d", n, d.N)
		}
		if d.TailQ == 0 {
			continue
		}
		if d.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it, want >= %d", n, d.TailQ, d.Beyond, minBeyond)
		}
		// Nearest rank over 1..n: the tail value counts the samples at or below it.
		if above := n - int(d.Tail); above != d.Beyond {
			t.Errorf("n=%d: %d samples above the tail value %g, reported %d", n, above, d.Tail, d.Beyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

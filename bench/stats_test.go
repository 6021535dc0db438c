package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {0.001, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %d, want 7", got)
	}
	// 200 values 1..200: the p99 is the 198th, leaving two beyond it.
	big := make([]int64, 200)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %d, want 198", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
}

func TestSubWindowTail(t *testing.T) {
	// Five sub-windows of 100 samples, all 1000 ns, except that the
	// third holds one 1 s stall. The whole-window p99 would still be
	// 1000 here, but make the stall wide enough to own a sub-window's
	// tail: 2 of its 100 samples.
	const window = 5_000
	var samples []sample
	for i := 0; i < 500; i++ {
		dur := int64(1000)
		if i == 250 || i == 251 {
			dur = 1_000_000_000
		}
		samples = append(samples, sample{at: int64(i) * window / 500, dur: dur})
	}
	if got := subWindowTail(samples, window, 5, 99); got != 1000 {
		t.Errorf("median of sub-window p99s = %v, want 1000: one stalled sub-window must not set it", got)
	}
	// A tail present in every sub-window is reported.
	samples = samples[:0]
	for i := 0; i < 500; i++ {
		dur := int64(1000)
		if i%50 == 0 {
			dur = 9000
		}
		samples = append(samples, sample{at: int64(i) * window / 500, dur: dur})
	}
	if got := subWindowTail(samples, window, 5, 99); got != 9000 {
		t.Errorf("median of sub-window p99s = %v, want 9000", got)
	}
	// Samples at or past the window's end fall into the last sub-window,
	// and an empty sub-window is skipped, not counted as zero.
	late := []sample{{at: window, dur: 5}, {at: window + 100, dur: 7}}
	if got := subWindowTail(late, window, 5, 99); got != 7 {
		t.Errorf("late samples: got %v, want 7", got)
	}
}

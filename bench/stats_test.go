package main

import (
	"math"
	"testing"
)

func TestSummarizeQuartiles(t *testing.T) {
	// 1..7: Python's statistics.quantiles(range(1, 8), n=4) gives [2, 4, 6].
	s := summarize([]float64{7, 3, 1, 5, 2, 6, 4}, metricDef{Unit: "s", Better: lower})
	if s.N != 7 || s.Median != 4 || s.Q1 != 2 || s.Q3 != 6 {
		t.Fatalf("got n=%d median=%g q1=%g q3=%g, want 7 4 2 6", s.N, s.Median, s.Q1, s.Q3)
	}
	if s.TailP != 0 {
		t.Errorf("7 samples must not report a tail percentile, got p%g", s.TailP)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	// 1..10: quantiles give [2.75, 5.5, 8.25] (interpolated).
	s = summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, metricDef{Better: lower})
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 {
		t.Errorf("got median=%g q1=%g q3=%g, want 5.5 2.75 8.25", s.Median, s.Q1, s.Q3)
	}
	if empty := summarize(nil, metricDef{}); empty.N != 0 || empty.Median != 0 || empty.spread() != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestSummarizeTailPercentile(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1) // 1..100
	}
	// Lower is better: the tail is the slow side. Ten samples (91..100) lie
	// beyond the value 90, which is the 90th percentile.
	s := summarize(values, metricDef{Better: lower})
	if s.TailP != 90 || s.Tail != 90 {
		t.Errorf("lower-is-better tail = p%g %g, want p90 90", s.TailP, s.Tail)
	}
	// Higher is better: the tail is the low side, ten samples (1..10) below 11.
	s = summarize(values, metricDef{Better: higher})
	if s.TailP != 10 || s.Tail != 11 {
		t.Errorf("higher-is-better tail = p%g %g, want p10 11", s.TailP, s.Tail)
	}
	// 20 samples are the fewest with a tail: the median, ten beyond it.
	s = summarize(values[:20], metricDef{Better: lower})
	if s.TailP != 50 || s.Tail != 10 {
		t.Errorf("20-sample tail = p%g %g, want p50 10", s.TailP, s.Tail)
	}
	if s = summarize(values[:19], metricDef{Better: lower}); s.TailP != 0 {
		t.Errorf("19 samples must not report a tail, got p%g", s.TailP)
	}
}

package main

import (
	"math"
	"sort"
)

// summary is the order statistics of one end-to-end metric over the timed
// ops of a run.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Tail is the worst-side percentile TailP: the highest one with at
	// least ten samples beyond it. Reported from 20 samples up.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// quantile interpolates the p-quantile of sorted values the way Python's
// statistics.quantiles does (exclusive method), so the quartiles printed here
// are the ones the driver computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := math.Floor(pos)
	frac := pos - lo
	return sorted[int(lo)]*(1-frac) + sorted[int(lo)+1]*frac
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailMinSamples is the number of samples that must lie beyond a percentile
// for it to be reported.
const tailMinSamples = 10

// summarize computes the summary of values for a metric whose worse side is
// up (better == lower) or down (better == higher).
func summarize(values []float64, def metricDef) summary {
	s := summary{Unit: def.Unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	if n := len(sorted); n >= 2*tailMinSamples {
		if def.Better == lower {
			s.TailP = 100 * float64(n-tailMinSamples) / float64(n)
			s.Tail = sorted[n-tailMinSamples-1]
		} else {
			s.TailP = 100 * float64(tailMinSamples) / float64(n)
			s.Tail = sorted[tailMinSamples]
		}
	}
	return s
}

// spread is the interquartile distance as a share of the median: the
// steadiness measure the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// resolution is how well a run pins its median down: the spread of the ops
// over the square root of their number, which is about the spread the median
// itself would show over repeated runs if the ops were independent. (Drift
// between runs comes on top; see README.md on how the bounds were derived.)
func (s summary) resolution() float64 {
	if s.N == 0 {
		return 0
	}
	return s.spread() / math.Sqrt(float64(s.N))
}

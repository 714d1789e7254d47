// Package stats provides accuracy metrics comparing approximate against
// exact betweenness, and the arithmetic mean.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ErrorReport summarizes the deviation between an approximation and the
// ground truth.
type ErrorReport struct {
	// MaxAbs is the maximum absolute error over all vertices — the quantity
	// the (eps, delta) guarantee bounds.
	MaxAbs float64
	// MeanAbs is the mean absolute error.
	MeanAbs float64
	// ArgMax is the vertex achieving MaxAbs.
	ArgMax int
	// WithinEps counts vertices with error <= eps.
	WithinEps int
	// N is the number of vertices compared.
	N int
}

// CompareScores computes an ErrorReport of approx against exact (same
// length), with eps used for the WithinEps count.
func CompareScores(exact, approx []float64, eps float64) ErrorReport {
	if len(exact) != len(approx) {
		panic("stats: score length mismatch")
	}
	r := ErrorReport{N: len(exact)}
	sum := 0.0
	for v := range exact {
		d := math.Abs(exact[v] - approx[v])
		sum += d
		if d > r.MaxAbs {
			r.MaxAbs = d
			r.ArgMax = v
		}
		if d <= eps {
			r.WithinEps++
		}
	}
	if r.N > 0 {
		r.MeanAbs = sum / float64(r.N)
	}
	return r
}

// TopKOverlap returns |topA ∩ topB| / k for the k highest-scoring vertices
// of each score vector — the "fraction of reliably identified top vertices"
// the paper's introduction uses to motivate small eps.
func TopKOverlap(a, b []float64, k int) float64 {
	if len(a) != len(b) {
		panic("stats: score length mismatch")
	}
	if k <= 0 || k > len(a) {
		panic("stats: invalid k")
	}
	ta := topKSet(a, k)
	tb := topKSet(b, k)
	inter := 0
	for v := range ta {
		if tb[v] {
			inter++
		}
	}
	return float64(inter) / float64(k)
}

func topKSet(scores []float64, k int) map[int]bool {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if scores[idx[i]] != scores[idx[j]] {
			return scores[idx[i]] > scores[idx[j]]
		}
		return idx[i] < idx[j]
	})
	set := make(map[int]bool, k)
	for _, v := range idx[:k] {
		set[v] = true
	}
	return set
}

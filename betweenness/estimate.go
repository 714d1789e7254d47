package betweenness

import (
	"context"
	"fmt"
)

// Estimate approximates the betweenness centrality of every vertex of the
// workload's graph with the KADABRA adaptive-sampling algorithm: with
// probability 1-delta, every estimate is within epsilon of the true
// (normalized) betweenness. Any backend runs any workload:
//
//	res, err := Estimate(ctx, Undirected(g), opts...)
//	res, err := Estimate(ctx, Directed(dg), opts...) // strongly connected digraph
//	res, err := Estimate(ctx, Weighted(wg), opts...) // connected, positive weights
//
// The defaults are epsilon 0.01, delta 0.1, seed 1, and the SharedMemory
// backend with one sampling thread per CPU core; options override them.
// The workload's validation rule (strong connectivity for Directed,
// connectivity for Weighted — one O(V+E) pass each) runs after option
// resolution and before the backend starts. Cancelling ctx stops the
// sampling loops within one epoch and returns ctx.Err(). The diameter
// phase (phase 1) is not interruptible; it runs once per Workload value,
// so reuse the Workload across estimates.
//
// Estimate is one NewEstimator followed by one Run. Keep the Estimator
// instead when you want to refine, poll, budget incrementally, or
// checkpoint the run.
func Estimate(ctx context.Context, w Workload, opts ...Option) (*Result, error) {
	est, err := NewEstimator(w, opts...)
	if err != nil {
		return nil, err
	}
	return est.Run(ctx)
}

// resolveSettings applies the options over the defaults.
func resolveSettings(opts []Option) (settings, error) {
	s := defaultSettings()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&s); err != nil {
			return settings{}, err
		}
	}
	return s, nil
}

// checkSize rejects graphs too small to estimate on and out-of-range top-k
// requests, at session construction and on every Refine.
func checkSize(n int, s settings) error {
	if n < 2 {
		return fmt.Errorf("betweenness: need at least 2 vertices, got %d", n)
	}
	if s.TopK >= n {
		return fmt.Errorf("betweenness: top-k %d out of range [1, %d)", s.TopK, n)
	}
	return nil
}

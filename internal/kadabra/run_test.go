package kadabra_test

import (
	"context"

	"repro/internal/core"
	. "repro/internal/kadabra"
)

// advance runs st on the one engine — core.Algorithm2 over a one-rank
// in-process world — under the budget fields of b (MaxSamples,
// MaxDuration), as betweenness.Estimator.Run does for the single-process
// backends.
func advance(ctx context.Context, st *EstimatorState, b Config) error {
	_, err := core.RunLocal(ctx, []*EstimatorState{st}, core.Config{Config: b})
	return err
}

// Run is a fresh single-process session over w run once on threads
// sampling threads (one: KADABRA's sequential run) under the
// cfg.MaxSamples / cfg.MaxDuration budget. It
// is what betweenness.NewEstimator + Run does for these backends.
func Run(ctx context.Context, w Workload, threads int, cfg Config) (*Result, error) {
	st, err := NewEstimatorState(w, threads, cfg)
	if err != nil {
		return nil, err
	}
	if err := advance(ctx, st, cfg); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

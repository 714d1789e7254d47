package kadabra

import (
	"context"
	"time"
)

// Run is a fresh single-process session over w run once (threads == 0: the
// sequential engine), under the cfg.MaxSamples / cfg.MaxDuration budget —
// the duration measured from entry, so it covers the diameter phase. It is
// what betweenness.NewEstimator + Run does for these engines.
func Run(ctx context.Context, w Workload, threads int, cfg Config) (*Result, error) {
	start := time.Now()
	st, err := NewEstimatorState(w, threads, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := st.Run(ctx, cfg.NewBudget(start)); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

package core

import (
	"context"
	"sync"

	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// RunLocal advances a distributed session by one collective Algorithm2 call
// over an in-process world of len(sts) ranks (each a goroutine group
// sharing the graph — the analogue of MPI ranks on one machine, where the
// graph data structure is shared), sts[r] being world rank r's state as
// NewStates builds them, and returns world rank 0's result. The states
// outlive the world: call it again to continue the session.
//
// Cancelling ctx stops the run within one epoch: rank 0 folds the
// cancellation into the termination broadcast, so every rank exits the
// collective loop cleanly, and RunLocal returns ctx.Err() (wrapped with the
// failing rank by the mpi layer).
func RunLocal(ctx context.Context, sts []*kadabra.EstimatorState, cfg Config) (*Result, error) {
	var mu sync.Mutex
	var rootRes *Result
	err := mpi.RunLocal(len(sts), func(c *mpi.Comm) error {
		res, err := Algorithm2(ctx, sts[c.Rank()], c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			rootRes = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rootRes, nil
}

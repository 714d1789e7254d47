package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// RunLocal executes Algorithm2 on a workload (any of the three
// estimation scenarios — undirected, directed, weighted) over an in-process
// world of procs ranks (each a goroutine group sharing the graph — the
// analogue of MPI ranks on one machine, where the graph data structure is
// shared) and returns world rank 0's result.
//
// Cancelling ctx stops the run within one epoch: rank 0 folds the
// cancellation into the termination broadcast, so every rank exits the
// collective loop cleanly, and RunLocal returns ctx.Err() (wrapped with the
// failing rank by the mpi layer).
func RunLocal(ctx context.Context, w kadabra.Workload, procs int, cfg Config) (*Result, error) {
	if procs < 1 {
		return nil, fmt.Errorf("core: need at least 1 process, got %d", procs)
	}
	var mu sync.Mutex
	var rootRes *Result
	err := mpi.RunLocal(procs, func(c *mpi.Comm) error {
		res, err := Algorithm2(ctx, w, c, cfg)
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

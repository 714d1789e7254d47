package core

import (
	"context"

	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// runFresh is one fresh distributed session run once over an in-process
// world of procs ranks: NewStates, then RunLocal.
func runFresh(ctx context.Context, w kadabra.Workload, procs int, cfg Config) (*Result, error) {
	sts, err := NewStates(w, procs, cfg)
	if err != nil {
		return nil, err
	}
	return RunLocal(ctx, sts, cfg)
}

// algorithm2Fresh runs Algorithm2 on comm with a fresh state for its rank —
// what one process of a TCP world does.
func algorithm2Fresh(ctx context.Context, w kadabra.Workload, comm *mpi.Comm, cfg Config) (*Result, error) {
	st, err := kadabra.NewRankState(w, comm.Rank(), comm.Size(), cfg.threads(), cfg.Config)
	if err != nil {
		return nil, err
	}
	return Algorithm2(ctx, st, comm, cfg)
}

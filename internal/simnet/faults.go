// Package simnet is deterministic fault injection for the distributed
// runtime: it drives the real distributed algorithm (core.Algorithm2, real
// graphs, real samples, the real recovery protocol) over the in-process
// transport and injects failures at exact points in the run — kill rank r
// the moment the coordinator folds epoch e, cut a set of ranks off mid-run,
// delay or drop frames on the wire. Because the trigger is an epoch count
// rather than a timer, every scenario is reproducible, which is what makes
// a (rank, epoch) kill grid a usable regression battery for the
// shrink-and-recalibrate protocol in core/recover.go.
package simnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// FaultPlan is a deterministic failure scenario for RunFaulty.
type FaultPlan struct {
	// KillEpoch, when > 0, kills world rank KillRank at the moment world
	// rank 0 has folded its KillEpoch-th adaptive epoch (the same
	// observation point as Config.OnEpoch, between the stopping check and
	// the termination broadcast — the worst possible moment, with a
	// decided code in flight). KillRank must be >= 1: a rank-0 death is by
	// design not recoverable in-run and is exercised separately through
	// the in-run captures (core.Config.CheckpointInterval).
	KillEpoch int
	KillRank  int

	// PartitionEpoch, when > 0, cuts PartitionRanks (which must not
	// include rank 0) off from the rest of the world at that epoch: cross-
	// partition frames vanish, and after DetectDelay both sides declare
	// each other dead — the in-process analogue of a liveness timeout.
	PartitionEpoch int
	PartitionRanks []int
	DetectDelay    time.Duration

	// Delay, when > 0, charges every delivered frame this much wall-clock
	// delay on the sender's goroutine (link latency).
	Delay time.Duration

	// Hook, when non-nil, observes every frame after the built-in faults
	// and may drop it by returning false. Dropping frames of a healthy
	// rank wedges the collective (there is no retransmission below the
	// liveness layer), so pair drops with a kill or a partition.
	Hook mpi.FaultHook
}

// FaultReport is the outcome of a fault-injected run.
type FaultReport struct {
	// Res is world rank 0's result (nil if rank 0 failed).
	Res *core.Result
	// Errs holds each rank's error: nil for ranks that completed, the
	// injected death for killed ranks, coordinator-lost for partitioned
	// ranks.
	Errs []error
}

// RunFaulty executes the selected algorithm over an in-process world of
// procs ranks while injecting the planned faults, and reports every rank's
// outcome. Unlike core.RunLocal it does not fold per-rank errors into one:
// a fault-injection test needs to assert that exactly the victims failed
// and everyone else converged.
func RunFaulty(ctx context.Context, w kadabra.Workload, procs int, cfg core.Config, plan FaultPlan) (*FaultReport, error) {
	if procs < 1 {
		return nil, fmt.Errorf("simnet: need at least 1 process, got %d", procs)
	}
	if plan.KillEpoch > 0 && (plan.KillRank < 1 || plan.KillRank >= procs) {
		return nil, fmt.Errorf("simnet: kill rank %d out of range [1, %d)", plan.KillRank, procs)
	}
	inPartition := make(map[int]bool, len(plan.PartitionRanks))
	if plan.PartitionEpoch > 0 {
		for _, r := range plan.PartitionRanks {
			if r < 1 || r >= procs {
				return nil, fmt.Errorf("simnet: partition rank %d out of range [1, %d)", r, procs)
			}
			inPartition[r] = true
		}
		if len(inPartition) == 0 {
			return nil, fmt.Errorf("simnet: partition plan with no ranks")
		}
	}

	world := mpi.NewLocalWorld(procs)
	var cut atomic.Bool
	world.SetFaultHook(func(src, dst, size int) bool {
		if plan.Delay > 0 {
			time.Sleep(plan.Delay)
		}
		if cut.Load() && inPartition[src] != inPartition[dst] {
			return false
		}
		if plan.Hook != nil {
			return plan.Hook(src, dst, size)
		}
		return true
	})

	// The triggers ride rank 0's OnEpoch hook: it fires on the coordinator
	// goroutine right after epoch p.Epoch was folded, so the injected
	// failure lands between the fold and the termination broadcast.
	sts, err := core.NewStates(w, procs, cfg)
	if err != nil {
		return nil, err
	}
	var fired, partitioned bool
	userHook := cfg.OnEpoch
	sts[0].SetOnEpoch(func(p kadabra.Progress) {
		if plan.KillEpoch > 0 && !fired && p.Epoch >= plan.KillEpoch {
			fired = true
			world.Kill(plan.KillRank)
		}
		if plan.PartitionEpoch > 0 && !partitioned && p.Epoch >= plan.PartitionEpoch {
			partitioned = true
			cut.Store(true)
			time.AfterFunc(plan.DetectDelay, func() {
				for o := 0; o < procs; o++ {
					for t := 0; t < procs; t++ {
						if o != t && inPartition[o] != inPartition[t] {
							world.MarkDeadAt(o, t, nil)
						}
					}
				}
			})
		}
		if userHook != nil {
			userHook(p)
		}
	})

	report := &FaultReport{Errs: make([]error, procs)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := core.Algorithm2(ctx, sts[i], world.Comm(i), cfg)
			report.Errs[i] = err
			if i == 0 && err == nil {
				mu.Lock()
				report.Res = res
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return report, nil
}

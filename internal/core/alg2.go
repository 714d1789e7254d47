package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/epoch"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// Algorithm2 is the epoch-based MPI parallelization of paper Algorithm 2:
// inside each process, T sampling threads are aggregated wait-free by the
// epoch framework; across processes, the per-epoch snapshots are aggregated
// with MPI collectives, with sampling overlapping every wait. With
// cfg.RanksPerNode > 1 the aggregation is hierarchical (§IV-E): frames are
// first reduced over the node-local communicator, then the node leaders
// reduce over the global communicator; this mirrors the paper's
// one-process-per-NUMA-socket deployment.
//
// It is the collective loop over the session state: every process calls it
// with its own rank's state (NewStates) over a structurally identical graph
// — any of the three estimation scenarios, per the paper's footnote 1: only
// the sampling kernel and the phase-1 bound differ. World rank 0's state is
// where (S, tau) lives: the reduced frames fold into it, the stopping
// check, progress hook, result and checkpoints are its own, and a
// calibrated state skips phase 2 — so a session keeps its samples from one
// call to the next. World rank 0 returns the result.
//
// Cancellation on any rank propagates: every rank gossips its context
// state with the per-epoch reduction, rank 0 folds it (and its own ctx)
// into the termination broadcast, and all ranks leave the collective loop
// cleanly within one epoch — cancelled ranks return their ctx.Err(), the
// others ErrRemoteCancelled; the samples folded until then stay. A
// cancellation that lands after rank 0 decided to stop is too late to
// count: every rank returns the result.
func Algorithm2(ctx context.Context, st *kadabra.EstimatorState, comm *mpi.Comm, cfg Config) (*Result, error) {
	// Budget stopping (anytime sessions): rank 0 enforces the sample cap
	// against the global tau; every rank honours the wall-clock deadline
	// and its own context in its calibration threads.
	start := time.Now()
	budget := cfg.NewBudget(start)
	lastCapture := start // rank 0's in-run capture clock (cfg.CheckpointInterval)
	n := st.N()
	T := st.Threads()
	root := 0
	defer st.Activate()()

	// Phase 1 ran when rank 0's state was built; announce its outcome.
	calibrated, tau, err := phase1(st, comm)
	if err != nil {
		return nil, err
	}

	// The in-process half of the algorithm — calibration fan-out, sampling
	// threads, epoch transitions — is epoch.Driver's.
	drv := st.NewDriver()
	defer drv.Stop()

	// Phase 2, unless the session is past it.
	var remoteCancelled bool
	if !calibrated {
		if remoteCancelled, err = phase2(ctx, st, comm, drv, budget, tau); err != nil {
			if _, dead := mpi.AsRankDead(err); dead && comm.Rank() == root {
				abandon(comm) // ranks past the reduce wait at the first broadcast
			}
			return nil, err
		}
	}

	// Hierarchical communicators (§IV-E), rebuilt from the current world
	// communicator after every shrink.
	ft := newFTState(comm, st)
	var local, global *mpi.Comm
	var hierarchical bool
	buildHierarchy := func() error {
		hierarchical = cfg.RanksPerNode > 1 && ft.comm.Size() > 1
		if !hierarchical {
			local, global = nil, ft.comm
			return nil
		}
		node := ft.comm.Rank() / cfg.RanksPerNode
		var herr error
		local, herr = ft.comm.Split(node, ft.comm.Rank())
		if herr != nil {
			return fmt.Errorf("core: local split: %w", herr)
		}
		leaderColor := -1
		if local.Rank() == 0 {
			leaderColor = 0
		}
		global, herr = ft.comm.Split(leaderColor, ft.comm.Rank())
		if herr != nil {
			return fmt.Errorf("core: global split: %w", herr)
		}
		return nil
	}
	if err := buildHierarchy(); err != nil {
		return nil, err
	}

	// Sampling threads 1..T-1 start here. overlap runs between two polls of
	// non-blocking communication: drv.Sample takes one sample in thread 0's
	// *current* frame, which during a wait is already the next epoch's
	// (Alg. 2 lines 21/27); NoOverlap runs nothing. Either way the poll
	// itself (mpi.Request.Test) advances the communication and yields the
	// processor.
	drv.Start()
	overlap := drv.Sample
	if cfg.NoOverlap {
		overlap = func() {}
	}

	var stats Stats
	stats.RanksStarted = comm.Size()
	stats.CommVolumePerEpoch = commVolumePerEpoch(n, comm.Size())
	samplingStart := time.Now()
	check0 := st.Timings().Check
	finish := func(code int64) (*Result, error) {
		res := &Result{Stats: stats}
		if comm.Rank() == root {
			t := st.Timings()
			t.Sampling += time.Since(samplingStart)
			t.Transition += stats.TransitionWait
			t.Barrier += stats.BarrierWait
			t.Reduce += stats.ReduceTime
			res.Stats.CheckTime = t.Check - check0
			res.Res = st.Result()
		}
		if err := cancelResult(ctx, code); err != nil {
			return nil, err
		}
		return res, nil
	}

	n0 := st.Config().EpochLength(comm.Size() * T)
	eLoc := epoch.NewStateFrame(st.N())
	var wire []byte

	// Fault tolerance: a rank death inside the epoch loop is absorbed by
	// shrinking the world, salvaging unfolded frames, rebuilding the
	// hierarchical communicators, and recalibrating the per-rank schedule
	// to the surviving worker count (see recover.go). The sampling threads
	// keep running throughout a recovery — their samples land in the
	// current epoch's frames and are aggregated as usual afterwards.
	recoverWorld := func(cause error) error {
		for {
			if rerr := ft.recover(cause, st); rerr != nil {
				return rerr
			}
			if herr := buildHierarchy(); herr != nil {
				if _, ok := mpi.AsRankDead(herr); ok {
					cause = herr // a further death during the re-split
					continue
				}
				return herr
			}
			n0 = st.Config().EpochLength(ft.comm.Size() * T)
			stats.RanksLost = ft.ranksLost
			stats.Recoveries = ft.recoveries
			stats.CommVolumePerEpoch = commVolumePerEpoch(n, ft.comm.Size())
			return nil
		}
	}

	// The state may already satisfy the stopping condition (calibration
	// alone can; so does a converged session run again), or be unable to
	// enter the epoch loop: a batch cut short leaves it uncalibrated. Which
	// taus are checked is the state's schedule (CheckDue).
	var code int64
	if comm.Rank() == root {
		stop := !st.Calibrated() || st.Converged() || st.CheckDue() && st.Check(n0) || budget.Exceeded(st.Tau())
		code = stopCode(stop, ctx.Err(), remoteCancelled)
	}
	got, _, err := broadcastFrame(comm, root, code, nil, overlap)
	if err == nil && got != codeContinue {
		return finish(got)
	}
	if err != nil {
		// A death around this first broadcast can fail it on some ranks
		// only, and a rank that failed cannot tell whether rank 0 got past
		// it into the epoch loop. So every rank recovers as the loop would,
		// unless rank 0 is not going there: then it abandons the run, and
		// the ranks waiting for its recovery round learn so.
		_, dead := mpi.AsRankDead(err)
		if dead && comm.Rank() == root && code != codeContinue {
			abandon(comm)
		}
		if !dead || code != codeContinue {
			return nil, err
		}
		if rerr := recoverWorld(err); rerr != nil {
			return nil, rerr
		}
	}

	for {
		// One in-process epoch (Alg. 2 lines 12-18): thread 0's quota of
		// samples (n0, or up to omega or the sample cap), the forced transition
		// overlapped with sampling, and this process's frozen frames summed
		// into eLoc in O(touched across the T frames). Encode them for the
		// wire, gossiping this rank's context state with the reduction.
		stats.TransitionWait += drv.Epoch(st.EpochQuota(n0, budget), eLoc)
		wire = epoch.AppendWire(wire[:0], eLoc, ctx.Err() != nil)
		eLoc.Reset()
		stats.WireBytes += int64(len(wire))
		ft.noteEpoch(wire)

		// Inter-process aggregation (lines 19-21), hierarchical per §IV-E:
		// node-local blocking merge-reduce (the shared-memory analogue),
		// then the IBarrier + reduce global aggregation among node leaders.
		var reduced []byte
		payload := wire
		aggErr := error(nil)
		if hierarchical {
			lres, lerr := local.ReduceMerge(0, payload, epoch.MergeWire)
			if lerr != nil {
				if _, ok := mpi.AsRankDead(lerr); !ok {
					return nil, fmt.Errorf("core: local reduce: %w", lerr)
				}
				aggErr = lerr
			}
			payload = lres
		}
		if aggErr == nil && (!hierarchical || local.Rank() == 0) {
			var bw, rt time.Duration
			reduced, bw, rt, err = aggregate(global, payload, overlap)
			if err != nil {
				if _, ok := mpi.AsRankDead(err); !ok {
					return nil, err
				}
				aggErr = err
			}
			stats.BarrierWait += bw
			stats.ReduceTime += rt
		}
		if aggErr != nil {
			if rerr := recoverWorld(aggErr); rerr != nil {
				return nil, rerr
			}
			// Resume with the next epoch on the shrunken world.
			continue
		}
		stats.Epochs++

		// Fold into the state and check the stopping condition at rank 0
		// only (lines 22-24). A continuing fold a capture interval after the
		// last capture (or the run's start) captures the state, shipped on
		// the broadcast below.
		var next int64
		var blob []byte
		if ft.comm.Rank() == root {
			remoteCancelled, ferr := st.FoldWire(reduced)
			if ferr != nil {
				return nil, fmt.Errorf("core: epoch frame: %w", ferr)
			}
			ft.noteFold()
			next = stopCode(st.CheckDue() && st.Check(n0) || budget.Exceeded(st.Tau()), ctx.Err(), remoteCancelled)
			if next == codeContinue && cfg.CheckpointInterval > 0 {
				if now := time.Now(); now.Sub(lastCapture) >= cfg.CheckpointInterval {
					blob, lastCapture = st.AppendCheckpoint(nil), now
				}
			}
		}

		// Broadcast the termination code (plus any capture) with overlap
		// (lines 25-27).
		code, blob, err = broadcastFrame(ft.comm, root, next, blob, overlap)
		if err != nil {
			if rerr := recoverWorld(err); rerr != nil {
				return nil, rerr
			}
			// A decided stop that failed to broadcast is re-derived next
			// epoch: the stopping rule is monotone in S.
			continue
		}
		if len(blob) > 0 {
			st.DeliverCheckpoint(blob)
			stats.Checkpoints++
		}
		if code != codeContinue {
			return finish(code)
		}
	}
}

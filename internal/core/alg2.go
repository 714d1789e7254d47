package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/epoch"
	"repro/internal/kadabra"
	"repro/internal/mpi"
	"repro/internal/rng"
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
// All processes call it collectively with a workload over a structurally
// identical graph — any of the three estimation scenarios (undirected,
// directed, weighted), per the paper's footnote 1: only the sampling
// kernel and the phase-1 bound differ between them. World rank 0 returns
// the result.
//
// Cancellation on any rank propagates: every rank gossips its context
// state with the per-epoch reduction, rank 0 folds it (and its own ctx)
// into the termination broadcast, and all ranks leave the collective loop
// cleanly within one epoch — cancelled ranks return their ctx.Err(), the
// others ErrRemoteCancelled.
func Algorithm2(ctx context.Context, w kadabra.Workload, comm *mpi.Comm, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	kcfg := cfg.Config
	if kcfg.Eps == 0 {
		kcfg.Eps = 0.01
	}
	if kcfg.Delta == 0 {
		kcfg.Delta = 0.1
	}
	cfg.Config = kcfg
	n := w.N()
	T := cfg.threads()
	root := 0

	// Phase 1: diameter at rank 0, broadcast.
	vd, diamTime, err := phase1(w, comm, cfg)
	if err != nil {
		return nil, err
	}
	omega := kadabra.Omega(vd, kcfg.Eps, kcfg.Delta)

	// Deterministic, globally distinct sampler streams: stream index is
	// worldRank*T + t. The in-process half of the algorithm — calibration
	// fan-out, sampling threads, epoch transitions — is epoch.Driver's.
	sm := rng.NewSplitMix64(kcfg.Seed)
	for i := 0; i < comm.Rank()*T; i++ {
		sm.Next()
	}
	sample := make([]func(*epoch.StateFrame), T)
	for t := range sample {
		s := w.NewSampler(rng.NewRand(sm.Next()))
		sample[t] = func(sf *epoch.StateFrame) { kadabra.SampleInto(s, sf) }
	}
	fw := epoch.New(T, n)
	if kcfg.DenseFrames {
		fw.ForceDense()
	}
	drv := epoch.NewDriver(fw, sample)
	defer drv.Stop()

	// Budget stopping (anytime sessions): rank 0 enforces the sample cap
	// against the global tau; every rank honours the wall-clock deadline
	// and its own context in its calibration threads.
	budget := kcfg.NewBudget(start)
	converged := false
	// The progress throughput counts from here: tau includes the
	// calibration samples, so its clock must too.
	rateStart := time.Now()

	// Phase 2: calibration — all T threads of all processes sample a fixed
	// share in parallel, then one blocking merge-reduction (§IV-F:
	// "Parallelizing the computation of the initial fixed number of samples
	// is straightforward").
	cal, calCounts, calTau, calTime, err := phase2(comm, cfg, n, omega, drv,
		func() bool { return ctx.Err() != nil || budget.Overdue() })
	if err != nil {
		return nil, err
	}

	// Hierarchical communicators (§IV-E), rebuilt from the current world
	// communicator after every shrink.
	ft := newFTState(comm, cfg, n)
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

	// Aggregated state S at world rank 0, seeded with calibration samples.
	var S []int64
	var STau int64
	if comm.Rank() == root {
		S = calCounts
		STau = calTau
	}

	// Sampling threads 1..T-1 start here. overlap runs between two polls of
	// non-blocking communication: drv.Sample takes one sample in thread 0's
	// *current* frame, which during a wait is already the next epoch's
	// (Alg. 2 lines 21/27); NoOverlap runs nothing. Either way the poll
	// itself (mpi.Request.Test) yields the processor.
	drv.Start()
	overlap := drv.Sample
	if cfg.NoOverlap {
		overlap = func() {}
	}

	finish := func(stats Stats, samplingTime time.Duration, checkTime time.Duration) *Result {
		res := &Result{Stats: stats}
		if comm.Rank() == root {
			res.Stats.Samples = STau
			res.Res = finalize(cal, n, S, STau, omega, vd, stats.Epochs, converged, kadabra.Timings{
				Diameter:    diamTime,
				Calibration: calTime,
				Sampling:    samplingTime,
				Transition:  stats.TransitionWait,
				Barrier:     stats.BarrierWait,
				Reduce:      stats.ReduceTime,
				Check:       checkTime,
			})
		}
		return res
	}

	var stats Stats
	stats.RanksStarted = comm.Size()
	stats.CommVolumePerEpoch = commVolumePerEpoch(n, comm.Size())

	// Degenerate case: calibration alone may satisfy the stopping condition.
	var code int64
	if comm.Rank() == root {
		converged = cal.HaveToStop(S, STau)
		code = stopCode(converged || budget.Exceeded(STau), ctx.Err(), false)
	}
	code, _, err = broadcastFrame(comm, root, code, nil, overlap)
	if err != nil {
		return nil, err
	}
	if code != codeContinue {
		res := finish(stats, 0, 0)
		if err := cancelResult(ctx, code); err != nil {
			return nil, err
		}
		return res, nil
	}

	samplingStart := time.Now()
	n0 := kcfg.EpochLength(comm.Size() * T)
	eLoc := cfg.newFrame(n)
	var wire []byte
	var checkTime time.Duration

	// Fault tolerance: a rank death inside the epoch loop is absorbed by
	// shrinking the world, salvaging unfolded frames, rebuilding the
	// hierarchical communicators, and recalibrating the per-rank schedule
	// to the surviving worker count (see recover.go). The sampling threads
	// keep running throughout a recovery — their samples land in the
	// current epoch's frames and are aggregated as usual afterwards.
	recoverWorld := func(cause error) error {
		for {
			if rerr := ft.recover(cause, S, &STau); rerr != nil {
				return rerr
			}
			if herr := buildHierarchy(); herr != nil {
				if _, ok := mpi.AsRankDead(herr); ok {
					cause = herr // a further death during the re-split
					continue
				}
				return herr
			}
			n0 = kcfg.EpochLength(ft.comm.Size() * T)
			stats.RanksLost = ft.ranksLost
			stats.Recoveries = ft.recoveries
			stats.CommVolumePerEpoch = commVolumePerEpoch(n, ft.comm.Size())
			return nil
		}
	}

	for {
		// One in-process epoch (Alg. 2 lines 12-18): n0 samples, the forced
		// transition overlapped with sampling, and this process's frozen
		// frames summed into eLoc in O(touched across the T frames). Encode
		// them for the wire, gossiping this rank's context state with the
		// reduction.
		stats.TransitionWait += drv.Epoch(n0, eLoc)
		wire = epoch.AppendWire(wire[:0], eLoc, ctx.Err() != nil)
		eLoc.Reset()
		stats.WireBytes += int64(len(wire))
		ft.noteEpoch(wire)

		// Inter-process aggregation (lines 19-21), hierarchical per §IV-E:
		// node-local blocking merge-reduce (the shared-memory analogue),
		// then the strategy-selected global aggregation among node leaders.
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
			reduced, bw, rt, err = aggregate(global, cfg.Strategy, payload, overlap)
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

		// Fold into S and check the stopping condition at rank 0 only
		// (lines 22-24).
		var next int64
		var blob []byte
		if ft.comm.Rank() == root {
			tau, remoteCancelled, ferr := epoch.FoldWire(reduced, S)
			if ferr != nil {
				return nil, fmt.Errorf("core: epoch frame: %w", ferr)
			}
			STau += tau
			ft.noteFold()
			cs := time.Now()
			converged = cal.HaveToStop(S, STau)
			checkTime += time.Since(cs)
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(progressAt(cal, S, STau, stats.Epochs, rateStart))
			}
			next = stopCode(converged || budget.Exceeded(STau), ctx.Err(), remoteCancelled)
			blob = checkpointBlob(cfg, vd, n, S, STau, cal, stats.Epochs, next)
		}

		// Broadcast the termination code (plus any due checkpoint) with
		// overlap (lines 25-27).
		code, blob, err = broadcastFrame(ft.comm, root, next, blob, overlap)
		if err != nil {
			if rerr := recoverWorld(err); rerr != nil {
				return nil, rerr
			}
			// A decided stop that failed to broadcast is re-derived next
			// epoch: the stopping rule is monotone in S.
			continue
		}
		if len(blob) > 0 && cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(blob)
			stats.Checkpoints++
		}
		if code != codeContinue {
			stats.CheckTime = checkTime
			res := finish(stats, time.Since(samplingStart), checkTime)
			if err := cancelResult(ctx, code); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
}

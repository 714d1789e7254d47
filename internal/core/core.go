// Package core implements the paper's primary contribution: the MPI-based
// parallelization of the KADABRA adaptive-sampling algorithm for
// betweenness approximation.
//
// Algorithm2 is the one engine every backend runs. It is the epoch-based
// MPI parallelization of paper Algorithm 2 (§IV-C): T sampling threads per
// process aggregated wait-free with the epoch framework, combined with MPI
// aggregation across processes, optionally hierarchical (node-local
// aggregation before the global reduction, §IV-E). Paper Algorithm 1, the
// pure-MPI stepping stone, is the same loop at T = 1 (Config.Threads <= 1,
// the default): with a single thread a forced epoch transition completes
// at once, so the epoch framework degenerates to the snapshot-and-reset of
// Alg. 1 lines 7-8. The shared-memory engine of the paper's Ref. 24 is the
// same loop on a one-rank world, whose collectives are plain copies that
// complete at once; so is KADABRA's sequential loop, at one thread. Nothing
// tells the three apart but the world's shape: P ranks of T threads, one
// check schedule in the session state (whether a check is due, thread 0's
// quota per epoch, each worker's calibration share), one loop.
//
// Where the pseudocode lives (Alg. 2 line numbers; Alg. 1's in brackets):
//
//   - lines 5-9, the sampling threads t != 0: epoch.Driver.Start
//   - lines 12-18 [5-8], thread 0's n0 samples, forceTransition with
//     sampling until every thread has followed, and the frozen frames
//     summed into the process-local snapshot: epoch.Driver.Epoch, then
//     AppendWire
//   - lines 19-21 [9-11], the non-blocking reduction overlapped with
//     sampling, done the way §IV-F settles on (a non-blocking barrier
//     overlapped with sampling, then a blocking reduce): aggregate, with
//     epoch.Driver.Sample as the overlap function
//   - lines 22-24 [13-14], rank 0 folds the snapshot into S and checks the
//     stopping condition: EstimatorState.FoldWire and Check
//   - lines 25-27 [16-18], the termination broadcast overlapped with
//     sampling: broadcastFrame
//
// The consistent state (S, tau) the loop runs on is not the loop's: it is
// world rank 0's kadabra.EstimatorState — so a session keeps its samples
// between calls, refines, and checkpoints through the one codec — and every
// rank's state owns that rank's samplers.
//
// Every process must hold the full graph (the paper's standing assumption,
// §I-A: samples are taken locally without communication). The communicator
// may come from the in-process world (RunLocal — the analogue of several
// MPI ranks on one machine, or of one process) or from TCP (mpi.ConnectTCP
// — genuinely distributed).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/epoch"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// Config extends the KADABRA parameters with distribution controls.
// NewStates builds the session from the embedded kadabra.Config — from then
// on the statistical identity, the progress hook (OnEpoch, fired at world
// rank 0) and the stopping rule live in the state — and Algorithm2 reads
// the per-call budget from it: rank 0 enforces MaxSamples against the
// global tau and MaxDuration against its own clock, folding a budget stop
// into the termination broadcast, so every rank leaves the loop in lockstep
// and rank 0's result reports Converged == false.
type Config struct {
	kadabra.Config
	// Threads is the number of sampling threads per process (T); <=0 means 1.
	Threads int
	// RanksPerNode, when > 1, enables the hierarchical aggregation of
	// §IV-E: consecutive groups of this many ranks form a "compute node"
	// (in the paper, one rank per NUMA socket, two per node); frames are
	// reduced node-locally before the leaders run the global reduction.
	RanksPerNode int
	// NoOverlap disables overlap sampling during communication waits
	// (barrier polls, non-blocking reductions and broadcasts only poll
	// instead of sampling). With Threads <= 1 every rank then takes exactly
	// its epoch quota (EstimatorState.EpochQuota: n0, or less at rank 0
	// near a sample cap), which makes a run independent of the schedule:
	// the golden-parity and fault-accounting tests need exactly that to pin
	// results bit for bit, which is why it stays. Leave it off otherwise.
	NoOverlap bool
	// CheckpointInterval, when > 0, makes world rank 0 capture the session
	// (EstimatorState.AppendCheckpoint) at the first continuing fold that
	// comes at least this long after the run started or after its last
	// capture. The capture rides the termination-broadcast frame to every
	// rank's SetOnCheckpoint sink, so a rank-0 death, the one failure the
	// in-run recovery protocol cannot absorb, costs at most one interval of
	// samples: kadabra.RestoreEstimatorState brings the payload back as
	// world rank 0 of a distributed session. A one-rank world captures the
	// same way, for its own sink.
	CheckpointInterval time.Duration
}

func (c Config) threads() int {
	if c.Threads <= 0 {
		return 1
	}
	return c.Threads
}

// Stats captures the per-run counters behind the paper's Table II.
type Stats struct {
	// Epochs is the number of completed epochs (Table II "Ep.").
	Epochs int
	// BarrierWait is the time rank 0's coordinator spent polling the
	// non-blocking barrier (Table II "B") — overlapped with sampling.
	BarrierWait time.Duration
	// ReduceTime is the non-overlapped blocking-aggregation time.
	ReduceTime time.Duration
	// CommVolumePerEpoch is the DENSE-equivalent aggregation traffic of one
	// epoch in bytes across all links (Table II "Com."): one (|V|+2)-int64
	// frame over each of the P-1 tree edges, plus the termination broadcast
	// codes. It is the upper bound the sparse wire encoding undercuts;
	// compare WireBytes for what this rank actually shipped.
	CommVolumePerEpoch int64
	// WireBytes is the total size of the encoded per-epoch reduce frames
	// this rank produced (its own leaf frames; partial aggregates forwarded
	// up the reduction tree are counted by the mpi layer's sends, not
	// here). Divide by Epochs for the per-rank-epoch average; with sparse
	// frames it sits far below CommVolumePerEpoch/(P-1) on large graphs.
	WireBytes int64
	// CheckTime is the stopping-condition evaluation time at rank 0.
	CheckTime time.Duration
	// TransitionWait is the time spent waiting for epoch transitions
	// (overlapped with sampling).
	TransitionWait time.Duration
	// RanksStarted is the world size the run began with; RanksLost counts
	// ranks declared dead and folded out by the recovery protocol (see
	// recover.go), and Recoveries the world reconfigurations performed.
	RanksStarted int
	RanksLost    int
	Recoveries   int
	// Checkpoints counts the in-run captures this rank received (see
	// Config.CheckpointInterval).
	Checkpoints int
}

// Result bundles the kadabra result with distribution statistics. Only
// world rank 0 receives Res.Betweenness; other ranks get Res == nil.
type Result struct {
	Res   *kadabra.Result
	Stats Stats
}

// ErrRemoteCancelled reports that the run stopped early because the
// context of another rank in the world was cancelled: the cancellation
// propagated through the per-epoch aggregation, so the local (partial)
// state carries no (eps, delta) guarantee.
var ErrRemoteCancelled = errors.New("core: run cancelled on a remote rank")

// frameBytes returns the dense wire size of one state frame for an
// n-vertex graph: tau, the per-vertex counts, and the cancellation flag.
// The sparse encoding (internal/epoch wire.go) undercuts this whenever an
// epoch touches fewer than n/8 vertices; frameBytes remains the reported
// upper bound so CommVolumePerEpoch stays comparable across runs.
func frameBytes(n int) int64 { return int64(n+2) * 8 }

func commVolumePerEpoch(n, procs int) int64 {
	if procs <= 1 {
		return 0
	}
	return int64(procs-1)*frameBytes(n) + 8*int64(procs-1)
}

// NewStates builds the per-rank session states of a procs-rank world over
// w, with cfg.Threads sampling threads each. World rank 0's state runs the
// diameter phase here (the paper uses a sequential diameter algorithm whose
// cost appears in Fig. 2b), unless cfg.VertexDiameter overrides it or the
// workload has resolved its bound already.
func NewStates(w kadabra.Workload, procs int, cfg Config) ([]*kadabra.EstimatorState, error) {
	if procs < 1 {
		return nil, fmt.Errorf("core: need at least 1 process, got %d", procs)
	}
	sts := make([]*kadabra.EstimatorState, procs)
	for rank := range sts {
		st, err := kadabra.NewRankState(w, rank, procs, cfg.threads(), cfg.Config)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sts[rank] = st
	}
	return sts, nil
}

// phase1 opens a collective run: world rank 0 broadcasts what its state
// holds — the vertex diameter, which the other ranks need for the
// calibration sample budget, the targets, whether calibration is behind it,
// and tau — and every rank aligns its state with it.
func phase1(st *kadabra.EstimatorState, comm *mpi.Comm) (calibrated bool, tau int64, err error) {
	var payload []byte
	if comm.Rank() == 0 {
		payload = mpi.EncodeInt64s(nil, st.Announce())
	}
	out, err := comm.Bcast(0, payload)
	if err != nil {
		return false, 0, fmt.Errorf("core: diameter broadcast: %w", err)
	}
	dec := make([]int64, len(out)/8)
	if len(dec) != 5 {
		return false, 0, fmt.Errorf("core: short session announcement (%d bytes)", len(out))
	}
	mpi.DecodeInt64s(dec, out)
	calibrated, tau = st.Sync(dec)
	return calibrated, tau, nil
}

// phase2 runs the calibration: every thread of every process takes its
// share (EstimatorState.CalibrationShare) of what the session lacks of
// tau0 = omega/StartFactor samples ("pleasingly parallel", §V-B), a
// blocking reduction lands the counts in world rank 0's state, and the
// state derives the per-vertex failure budgets
// (EstimatorState.FinishCalibration) — or stays uncalibrated and resumable
// when the batch was cut short.
//
// The local threads' share is drv.Batch's, cut short once the context is
// cancelled or the deadline passes (each rank checks its own — the reduce
// merges whatever was taken); phase2 encodes the process-local frame (sparse
// or dense as the frame decided), gossiping this rank's context state as
// the epoch loop does, and merge-reduces the encodings, so calibration
// traffic scales with what was sampled just like the epoch loop's.
func phase2(ctx context.Context, st *kadabra.EstimatorState, comm *mpi.Comm, drv *epoch.Driver,
	budget kadabra.Budget, tau int64) (remoteCancelled bool, err error) {
	start := time.Now()
	local := epoch.NewStateFrame(st.N())
	if per := st.CalibrationShare(budget, tau, comm.Size()*st.Threads()); per > 0 {
		stop := func() bool { return ctx.Err() != nil || budget.Overdue() }
		drv.Batch(per, stop, local)
	}
	res, err := comm.ReduceMerge(0, epoch.AppendWire(nil, local, ctx.Err() != nil), epoch.MergeWire)
	if err != nil {
		return false, fmt.Errorf("core: calibration reduce: %w", err)
	}
	if comm.Rank() == 0 {
		if remoteCancelled, err = st.FoldWire(res); err != nil {
			return false, fmt.Errorf("core: calibration frame: %w", err)
		}
		st.FinishCalibration(start)
	}
	return remoteCancelled, nil
}

// aggregate performs one epoch's inter-process aggregation of the local
// frame encoding (already node-locally merged by the caller when hierarchy
// is on) the way paper §IV-F settles on: a non-blocking barrier, polled
// with overlap() until every rank has arrived, then a blocking merge
// reduction ("we first perform a non-blocking barrier followed by a
// blocking MPI_Reduce. This strategy resulted in a considerable speedup").
// It returns the reduced frame at rank 0 (nil elsewhere) plus the time
// spent in the barrier poll and in the blocking reduction. Frames flow
// through the variable-length merge reduction, so a sparse epoch costs
// O(touched) per tree edge end to end.
func aggregate(comm *mpi.Comm, buf []byte, overlap func()) (
	reduced []byte, barrierWait, reduceTime time.Duration, err error,
) {
	req := comm.IBarrier()
	bs := time.Now()
	for !req.Test() {
		overlap()
	}
	barrierWait = time.Since(bs)
	if _, err = req.Wait(); err != nil {
		return nil, barrierWait, 0, err
	}
	rs := time.Now()
	reduced, err = comm.ReduceMerge(0, buf, epoch.MergeWire)
	return reduced, barrierWait, time.Since(rs), err
}

// Termination codes broadcast by rank 0 each epoch (paper Alg. 1 line 16
// carries a boolean; the cancelled code additionally tells every rank the
// early stop came from a context cancellation somewhere in the world).
const (
	codeContinue int64 = iota
	codeStop
	codeCancelled
)

// broadcastFrame distributes the termination code plus an optional opaque
// blob — rank 0's in-run capture rides here, so checkpointing adds no
// extra collective — with a non-blocking broadcast, overlapping
// with overlap().
func broadcastFrame(comm *mpi.Comm, root int, code int64, blob []byte, overlap func()) (int64, []byte, error) {
	var req *mpi.Request
	if comm.Rank() == root {
		payload := mpi.EncodeInt64s(nil, []int64{code})
		payload = append(payload, blob...)
		req = comm.IBcast(root, payload)
	} else {
		req = comm.IBcast(root, nil)
	}
	for !req.Test() {
		overlap()
	}
	data, err := req.Wait()
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("core: short termination frame (%d bytes)", len(data))
	}
	out := make([]int64, 1)
	mpi.DecodeInt64s(out, data[:8])
	return out[0], data[8:], nil
}

// stopCode folds the local stopping decision, the local context, and the
// remotely-gossiped cancellations into the code rank 0 broadcasts.
func stopCode(stop bool, localErr error, remoteCancelled bool) int64 {
	switch {
	case localErr != nil || remoteCancelled:
		return codeCancelled
	case stop:
		return codeStop
	default:
		return codeContinue
	}
}

// cancelResult translates the termination code into the error each rank
// returns: the rank's own ctx error when it was cancelled, and
// ErrRemoteCancelled when the early stop originated elsewhere. A stop rank 0
// decided without a cancellation stands even if this rank's context was
// cancelled since: every rank then returns the result, so the ranks agree
// (and a TCP world still runs its final barrier together).
func cancelResult(ctx context.Context, code int64) error {
	if code != codeCancelled {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrRemoteCancelled
}

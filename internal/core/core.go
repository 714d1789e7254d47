// Package core implements the paper's primary contribution: the MPI-based
// parallelization of the KADABRA adaptive-sampling algorithm for
// betweenness approximation.
//
// Algorithm2 is the one distributed loop. It is the epoch-based MPI
// parallelization of paper Algorithm 2 (§IV-C): T sampling threads per
// process aggregated wait-free with the epoch framework, combined with MPI
// aggregation across processes, optionally hierarchical (node-local
// aggregation before the global reduction, §IV-E). Paper Algorithm 1, the
// pure-MPI stepping stone, is the same loop at T = 1 (Config.Threads <= 1,
// the default): with a single thread a forced epoch transition completes
// at once, so the epoch framework degenerates to the snapshot-and-reset of
// Alg. 1 lines 7-8.
//
// Where the pseudocode lives (Alg. 2 line numbers; Alg. 1's in brackets):
//
//   - lines 5-9, the sampling threads t != 0: epoch.Driver.Start
//   - lines 12-18 [5-8], thread 0's n0 samples, forceTransition with
//     sampling until every thread has followed, and the frozen frames
//     summed into the process-local snapshot: epoch.Driver.Epoch, then
//     AppendWire
//   - lines 19-21 [9-11], the non-blocking reduction overlapped with
//     sampling: aggregate, with epoch.Driver.Sample as the overlap function
//   - lines 22-24 [13-14], rank 0 folds the snapshot into S and checks the
//     stopping condition: FoldWire and Calibration.HaveToStop
//   - lines 25-27 [16-18], the termination broadcast overlapped with
//     sampling: broadcastFrame
//
// Every process must hold the full graph (the paper's standing assumption,
// §I-A: samples are taken locally without communication). The communicator
// may come from the in-process world (mpi.RunLocal — the analogue of
// several MPI ranks on one machine) or from TCP (mpi.ConnectTCP — genuinely
// distributed).
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

// AggStrategy selects how state frames are aggregated across processes
// each epoch (paper §IV-F compares these).
type AggStrategy int

const (
	// AggIBarrierReduce is the paper's preferred strategy: a non-blocking
	// barrier overlapped with sampling, followed by a blocking reduction
	// ("we first perform a non-blocking barrier followed by a blocking
	// MPI_Reduce. This strategy resulted in a considerable speedup", §IV-F).
	AggIBarrierReduce AggStrategy = iota
	// AggIReduce uses the non-blocking reduction directly (paper Alg. 1/2
	// as written; slower with common MPI implementations, §IV-F).
	AggIReduce
	// AggBlocking performs a fully blocking reduction with no overlap (the
	// strategy the paper found "again detrimental to performance").
	AggBlocking
)

func (s AggStrategy) String() string {
	switch s {
	case AggIBarrierReduce:
		return "ibarrier+reduce"
	case AggIReduce:
		return "ireduce"
	case AggBlocking:
		return "blocking"
	default:
		return fmt.Sprintf("AggStrategy(%d)", int(s))
	}
}

// Config extends the KADABRA parameters with distribution controls.
type Config struct {
	kadabra.Config
	// Threads is the number of sampling threads per process (T); <=0 means 1.
	Threads int
	// Strategy selects the inter-process aggregation (default
	// AggIBarrierReduce, the paper's choice).
	Strategy AggStrategy
	// RanksPerNode, when > 1, enables the hierarchical aggregation of
	// §IV-E: consecutive groups of this many ranks form a "compute node"
	// (in the paper, one rank per NUMA socket, two per node); frames are
	// reduced node-locally before the leaders run the global reduction.
	RanksPerNode int
	// OnEpoch, when non-nil, is invoked at world rank 0 after every epoch's
	// aggregation with a consistent progress observation of the global
	// state. It runs on the coordinator thread between the stopping check
	// and the termination broadcast, so it must be cheap; registering it
	// makes every epoch pay the O(n) achieved-eps sweep on top of the
	// amortized O(1) stopping check. It is intended for progress reporting
	// and convergence tracing. (The budget knobs — MaxSamples, MaxDuration
	// — live on the embedded kadabra.Config: rank 0 enforces them against
	// the global tau and its own clock, folding a budget stop into the
	// same termination broadcast as a converged stop, so every rank leaves
	// the collective loop in lockstep and rank 0's result reports the
	// achieved guarantee with Converged == false.)
	OnEpoch func(kadabra.Progress)
	// NoOverlap disables overlap sampling during communication waits
	// (barrier polls, non-blocking reductions and broadcasts only poll
	// instead of sampling). With Threads <= 1 every rank then takes exactly n0
	// samples per epoch, making runs schedule-independent; it exists for
	// the dense-vs-sparse equivalence tests and as an ablation of the
	// paper's overlap story. Leave it off otherwise.
	NoOverlap bool
	// CheckpointInterval, when > 0, makes rank 0 serialize the global
	// estimator state every this many epochs and ship it to every rank on
	// the termination-broadcast frame; each rank then invokes OnCheckpoint
	// with the payload. Because every rank holds the latest checkpoint, a
	// rank-0 death — the one failure the in-run recovery protocol cannot
	// absorb — costs at most one checkpoint interval of samples: restart
	// from the payload via kadabra.RestoreEstimatorState (the betweenness
	// layer wraps it for RestoreEstimator).
	CheckpointInterval int
	// OnCheckpoint receives each periodic distributed checkpoint (see
	// CheckpointInterval). It runs on every rank's coordinator goroutine
	// between the termination broadcast and the next epoch, so it should
	// hand the payload off (e.g. an atomic file write) rather than block.
	OnCheckpoint func(payload []byte)
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
	// Samples is tau in the final consistent state (Table II "Samples").
	Samples int64
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
	// Checkpoints counts the periodic distributed checkpoints this rank
	// received (see Config.CheckpointInterval).
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

// newFrame builds a state frame honouring cfg.DenseFrames.
func (c Config) newFrame(n int) *epoch.StateFrame {
	sf := epoch.NewStateFrame(n)
	if c.DenseFrames {
		sf.ForceDense()
	}
	return sf
}

// phase1 computes the vertex diameter at world rank 0 (the paper uses a
// sequential diameter algorithm whose cost appears in Fig. 2b) and
// broadcasts it to all ranks, which need it for the calibration sample
// budget. The bound itself is workload-specific: the workload's resolver
// honours cfg.VertexDiameter and, on the undirected scenario, the iFUB
// cap cfg.DiameterBFSCap.
func phase1(w kadabra.Workload, comm *mpi.Comm, cfg Config) (vd int, elapsed time.Duration, err error) {
	var payload []byte
	if comm.Rank() == 0 {
		vd, elapsed = w.ResolveDiameter(cfg.Config)
		payload = mpi.EncodeInt64s(nil, []int64{int64(vd)})
	}
	out, err := comm.Bcast(0, payload)
	if err != nil {
		return 0, 0, fmt.Errorf("core: diameter broadcast: %w", err)
	}
	dec := make([]int64, 1)
	mpi.DecodeInt64s(dec, out)
	return int(dec[0]), elapsed, nil
}

// phase2 runs the calibration: every thread of every process takes an equal
// share of tau0 = omega/StartFactor samples ("pleasingly parallel", §V-B),
// a blocking reduction lands the counts at world rank 0, and rank 0 derives
// the per-vertex failure budgets. Non-root ranks return cal == nil.
//
// The local threads' share is drv.Batch's, cut short once stop reports
// true (an empty batch still calibrates; the stopping rule never fires on
// tau = 0); phase2 encodes the process-local frame (sparse or dense as the
// frame decided) and merge-reduces the encodings, so calibration traffic
// scales with what was sampled just like the epoch loop's.
func phase2(comm *mpi.Comm, cfg Config, n int, omega float64, drv *epoch.Driver, stop func() bool,
) (cal *kadabra.Calibration, calCounts []int64, calTau int64, elapsed time.Duration, err error) {
	start := time.Now()
	kcfg := cfg.Config
	if kcfg.StartFactor == 0 {
		kcfg.StartFactor = 100
	}
	tau0 := int64(omega)/int64(kcfg.StartFactor) + 1
	totalWorkers := comm.Size() * cfg.threads()
	perThread := int(tau0)/totalWorkers + 1
	// A sample budget smaller than the calibration batch caps each
	// thread's share; the wall-clock deadline and the context are
	// enforced by stop (each rank checks its own — the reduce merges
	// whatever was taken, and the calibration heuristic tolerates a short
	// batch: it only influences running time).
	if kcfg.MaxSamples > 0 {
		if cap := int(kcfg.MaxSamples)/totalWorkers + 1; cap < perThread {
			perThread = cap
		}
	}

	local := cfg.newFrame(n)
	drv.Batch(perThread, stop, local)
	buf := epoch.AppendWire(nil, local, false)
	res, err := comm.ReduceMerge(0, buf, epoch.MergeWire)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("core: calibration reduce: %w", err)
	}
	if comm.Rank() == 0 {
		calCounts = make([]int64, n)
		calTau, _, err = epoch.FoldWire(res, calCounts)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("core: calibration frame: %w", err)
		}
		cal = kadabra.Calibrate(calCounts, calTau, omega, kcfg.Eps, kcfg.Delta)
	}
	return cal, calCounts, calTau, time.Since(start), nil
}

// aggregate performs one epoch's inter-process aggregation of the local
// frame encoding (already node-locally merged by the caller when hierarchy
// is on), following the configured strategy, while overlap() is invoked
// repeatedly during non-blocking waits. It returns the reduced frame at
// rank 0 (nil elsewhere) plus the time spent in the barrier poll and in the
// blocking reduction. Frames flow through the variable-length merge
// reduction, so a sparse epoch costs O(touched) per tree edge end to end.
func aggregate(comm *mpi.Comm, strategy AggStrategy, buf []byte, overlap func()) (
	reduced []byte, barrierWait, reduceTime time.Duration, err error,
) {
	switch strategy {
	case AggIReduce:
		req := comm.IReduceMerge(0, buf, epoch.MergeWire)
		bs := time.Now()
		for !req.Test() {
			overlap()
		}
		barrierWait = time.Since(bs)
		reduced, err = req.Wait()
		return reduced, barrierWait, 0, err
	case AggBlocking:
		rs := time.Now()
		reduced, err = comm.ReduceMerge(0, buf, epoch.MergeWire)
		return reduced, 0, time.Since(rs), err
	default: // AggIBarrierReduce
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
// blob — the periodic distributed checkpoint rides here, so checkpointing
// adds no extra collective — with a non-blocking broadcast, overlapping
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

// checkpointBlob builds the periodic distributed checkpoint at rank 0 when
// one is due: the run continues, a sink is registered, and the interval
// divides the epoch count. The payload is a sequential-engine estimator
// checkpoint of the global state (kadabra.AppendDistCheckpoint), so any
// rank holding it can restart the job after a rank-0 death.
func checkpointBlob(cfg Config, vd, n int, S []int64, STau int64, cal *kadabra.Calibration, epochs int, next int64) []byte {
	if cfg.CheckpointInterval <= 0 || cfg.OnCheckpoint == nil || next != codeContinue {
		return nil
	}
	if epochs%cfg.CheckpointInterval != 0 {
		return nil
	}
	return kadabra.AppendDistCheckpoint(nil, cfg.Config, vd, n, S, STau, cal, epochs)
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
// ErrRemoteCancelled when the early stop originated elsewhere.
func cancelResult(ctx context.Context, code int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if code == codeCancelled {
		return ErrRemoteCancelled
	}
	return nil
}

// finalize converts the aggregated state at rank 0 into a kadabra.Result,
// reporting the anytime guarantee the state actually holds (equal to or
// tighter than the target eps when converged, the honest looser bound when
// a budget stopped the run early).
func finalize(cal *kadabra.Calibration, n int, counts []int64, tau int64, omega float64, vd int,
	epochs int, converged bool, t kadabra.Timings) *kadabra.Result {
	bt := make([]float64, n)
	if tau > 0 {
		for v, c := range counts {
			bt[v] = float64(c) / float64(tau)
		}
	}
	achieved := 1.0
	if cal != nil {
		achieved = cal.AchievedEps(counts, tau)
	}
	return &kadabra.Result{
		Betweenness:    bt,
		Tau:            tau,
		Omega:          omega,
		VertexDiameter: vd,
		Epochs:         epochs,
		AchievedEps:    achieved,
		Converged:      converged,
		Timings:        t,
	}
}

// progressAt builds the rank-0 per-epoch progress observation; only called
// when Config.OnEpoch is registered (it pays the O(n) achieved-eps sweep).
func progressAt(cal *kadabra.Calibration, counts []int64, tau int64, epochs int, since time.Time) kadabra.Progress {
	p := kadabra.Progress{Epoch: epochs, Tau: tau, AchievedEps: cal.AchievedEps(counts, tau)}
	if el := time.Since(since).Seconds(); el > 0 && tau > 0 {
		p.SamplesPerSec = float64(tau) / el
	}
	return p
}

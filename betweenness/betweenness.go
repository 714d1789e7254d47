// Package betweenness is the public front door to every betweenness-
// centrality estimator in this repository: the KADABRA adaptive-sampling
// approximation of van der Grinten & Meyerhenke (IPDPS 2020) behind one
// entry point,
//
//	res, err := betweenness.Estimate(ctx, betweenness.Undirected(g),
//	        betweenness.WithEpsilon(0.005),
//	        betweenness.WithExecutor(betweenness.SharedMemory()))
//
// with functional options for the statistical parameters and the execution
// backend. The backends are a closed set of four Executor values, all
// running the paper's Algorithm 2 on one check schedule: Sequential
// (reference, one thread) and SharedMemory (epoch-based threads) on a
// one-rank in-process world, LocalMPI over
// in-process ranks (with its default of one sampling thread per rank, the
// paper's Algorithm 1), and TCP as one rank of a genuinely distributed
// world.
//
// Every backend honours context cancellation: cancelling ctx stops the
// calibration and adaptive-sampling loops within one epoch and Estimate
// returns ctx.Err(). On the multi-process backends the cancellation
// propagates through the per-epoch aggregation, so cancelling any one
// rank stops the whole world; the other ranks return ErrRemoteCancelled.
// The diameter phase is the one non-interruptible stretch; a Workload runs
// it once, on its first estimate, and every later estimate on the same
// Workload value reuses the bound.
//
// Directed and weighted graphs are first-class workloads (the paper's
// footnote 1): the Undirected, Directed, and Weighted constructors produce
// tagged Workload values carrying their validation rule, sampling kernel,
// and certified vertex-diameter bound, and every backend runs all three.
//
// Estimation is anytime: after every epoch the run holds a valid
// (eps', delta) guarantee that only tightens until tau passes omega, where
// it becomes the target eps. WithTopK swaps the uniform guarantee for a
// certified top-k ranking on every backend. NewEstimator exposes that
// as a long-lived session — Run with sampling budgets (WithMaxSamples,
// WithMaxDuration; an early stop reports the achieved guarantee in
// Result.AchievedEps), Snapshot at any time, Refine toward a tighter eps
// reusing every prior sample, and Checkpoint/RestoreEstimator to resume
// across process restarts, on every backend: a distributed session keeps
// its samples at world rank 0 between the collective runs. Estimate itself
// is one NewEstimator plus one Run.
//
// The distributed backends are fault tolerant: a rank that dies mid-run
// (closed connection, or a silent peer caught by the TCP transport's
// heartbeat/liveness deadlines) is absorbed by a shrink-and-recalibrate
// recovery round — the surviving ranks salvage the undelivered epoch
// frames, shrink the world, and complete the run with the full
// (eps, delta) guarantee; at most the dead rank's in-flight epoch is
// lost. Result.Distributed reports the accounting (RanksStarted,
// RanksLost, Recoveries). The one unabsorbable failure is the death of
// rank 0, the coordinator; WithDistCheckpoint bounds its cost to one
// checkpoint interval by shipping a periodic checkpoint to every rank,
// from which RestoreEstimator restarts the session as distributed.
//
// Exact ground truth (Brandes' algorithm) and accuracy reports are
// available via Exact, ExactDirected, ExactWeighted, and Compare.
package betweenness

import (
	"time"

	"repro/graph"
	"repro/internal/core"
	"repro/internal/kadabra"
)

// Snapshot is one consistent observation of an estimate, delivered to the
// WithProgress callback after every stopping check (one per epoch) and
// returned by Estimator.Snapshot at any time. The two sources share this one
// type, so a progress stream and a session poll report the same honest
// quantities.
type Snapshot struct {
	// Epoch is the 1-based index of the completed epoch.
	Epoch int
	// Tau is the number of samples in the consistent aggregated state.
	Tau int64
	// AchievedEps is the anytime guarantee currently held: with
	// probability 1-delta, every estimate is within AchievedEps of the
	// truth. It is 1 (vacuous) before calibration completes and tightens
	// toward the target eps as sampling proceeds; past omega it is the
	// target eps. (Delivering it costs an
	// O(n) bound sweep per epoch, paid only while a progress callback is
	// registered.)
	AchievedEps float64
	// SamplesPerSec is the observed sampling throughput, averaged over the
	// calibration and adaptive phases so far.
	SamplesPerSec float64
	// Estimates is the per-vertex view of the state the snapshot
	// describes. Estimator.Snapshot fills it when the session is idle;
	// it is nil in WithProgress deliveries, which stay cheap enough to
	// run every epoch.
	Estimates []float64
}

// fromProgress converts the internal progress observation.
func fromProgress(p kadabra.Progress) Snapshot {
	return Snapshot{
		Epoch:         p.Epoch,
		Tau:           p.Tau,
		AchievedEps:   p.AchievedEps,
		SamplesPerSec: p.SamplesPerSec,
	}
}

// Timings is the per-phase wall-clock breakdown of a run, the raw material
// of the paper's Figure 2b.
type Timings struct {
	// Diameter is the vertex-diameter phase (phase 1).
	Diameter time.Duration
	// Calibration is the fixed-budget sampling phase (phase 2).
	Calibration time.Duration
	// Sampling is the adaptive sampling phase (phase 3), total.
	Sampling time.Duration
	// Transition is the time spent waiting for epoch transitions
	// (parallel backends; overlapped with sampling).
	Transition time.Duration
	// Barrier is the non-blocking barrier wait (MPI backends; overlapped).
	Barrier time.Duration
	// Reduce is the blocking aggregation time (MPI backends).
	Reduce time.Duration
	// Check is the stopping-condition evaluation time.
	Check time.Duration
}

// Total returns the end-to-end duration of the three phases.
func (t Timings) Total() time.Duration { return t.Diameter + t.Calibration + t.Sampling }

// DistStats captures the distribution counters of one MPI-backend run
// (paper Table II) — of the last Run or Refine call, where Result.Epochs
// and Result.Tau count the whole session; it is nil on single-process
// backends.
type DistStats struct {
	// Epochs is the number of completed epochs.
	Epochs int
	// BarrierWait is the coordinator's non-blocking barrier poll time
	// (overlapped with sampling).
	BarrierWait time.Duration
	// ReduceTime is the non-overlapped blocking-aggregation time.
	ReduceTime time.Duration
	// TransitionWait is the epoch-transition wait (Algorithm 2 only).
	TransitionWait time.Duration
	// CheckTime is the stopping-condition evaluation time at rank 0.
	CheckTime time.Duration
	// CommVolumePerEpoch is one epoch's dense-equivalent aggregation
	// traffic in bytes across all links — the upper bound the sparse
	// frame encoding undercuts (compare ReduceWireBytes).
	CommVolumePerEpoch int64
	// ReduceWireBytes is the total size of the encoded per-epoch reduce
	// frames this rank actually produced; with sparse frames it scales
	// with what was sampled, not with the graph size.
	ReduceWireBytes int64
	// RanksStarted is the world size the adaptive loop began with, and
	// RanksFinished the size it ended with: RanksLost ranks died mid-run
	// and were absorbed by the shrink-and-recalibrate recovery protocol
	// (their folded samples are kept; at most their in-flight epoch is
	// lost). Recoveries counts the recovery rounds that committed.
	RanksStarted, RanksFinished, RanksLost, Recoveries int
	// Checkpoints is the number of periodic distributed checkpoints this
	// rank received (see WithDistCheckpoint).
	Checkpoints int
}

// Result is the unified output of every backend.
//
// On the TCP backend, only world rank 0 receives the estimates; other
// ranks get a Result with Estimates == nil (and Distributed still set), so
// they can report their own communication statistics.
type Result struct {
	// Estimates holds btilde(v), the approximate betweenness of every
	// vertex, with the guarantee |btilde(v) - b(v)| <= eps for all v
	// simultaneously with probability 1-delta.
	Estimates []float64
	// Tau is the number of samples in the final consistent state.
	Tau int64
	// Omega is the static maximal sample count derived from the vertex
	// diameter.
	Omega float64
	// VertexDiameter is the value omega was computed from.
	VertexDiameter int
	// Epochs is the number of stopping checks made, the first right after
	// the calibration batch; each closes an epoch.
	Epochs int
	// AchievedEps is the guarantee actually achieved: with probability
	// 1-delta every estimate is within AchievedEps of the truth. It is at
	// most the target eps when Converged; when a budget (WithMaxSamples,
	// WithMaxDuration) stopped the run early it is the honest, looser
	// anytime bound the accumulated samples support.
	AchievedEps float64
	// Converged reports whether the adaptive stopping rule reached the
	// target eps (or tau reached omega); false means a sampling budget
	// ended the run first — resume with Estimator.Run or Refine.
	Converged bool
	// Timings is the per-phase wall-clock breakdown.
	Timings Timings
	// Backend names the executor that produced the result.
	Backend string
	// Distributed holds MPI counters; nil on single-process backends.
	Distributed *DistStats

	// Top is the top-k ranking when WithTopK was requested: certified by
	// the KADABRA top-k stopping rule on a session built with WithTopK,
	// derived from the final estimates when WithTopK only came with a
	// Refine or a restore of a uniform session.
	Top []graph.Node
	// Lower and Upper are per-vertex confidence bounds of a certified
	// top-k session, on any backend (valid simultaneously with probability
	// 1-delta; past omega they are the estimates -/+ eps, clamped to
	// [0, 1]).
	Lower, Upper []float64
	// Separated reports whether a certified top-k run ended with a clean
	// separation of the top set.
	Separated bool
}

// TopK returns the k vertices with the highest estimated betweenness in
// descending order (ties broken by vertex ID).
func (r *Result) TopK(k int) []graph.Node {
	return TopKOf(r.Estimates, k)
}

// fromKadabra converts an internal result, attaching the backend name.
func fromKadabra(backend string, kr *kadabra.Result) *Result {
	return &Result{
		Estimates:      kr.Betweenness,
		Tau:            kr.Tau,
		Omega:          kr.Omega,
		VertexDiameter: kr.VertexDiameter,
		Epochs:         kr.Epochs,
		AchievedEps:    kr.AchievedEps,
		Converged:      kr.Converged,
		Timings:        fromTimings(kr.Timings),
		Backend:        backend,
		Lower:          kr.Lower,
		Upper:          kr.Upper,
		Separated:      kr.Separated,
	}
}

func fromTimings(t kadabra.Timings) Timings {
	return Timings{
		Diameter:    t.Diameter,
		Calibration: t.Calibration,
		Sampling:    t.Sampling,
		Transition:  t.Transition,
		Barrier:     t.Barrier,
		Reduce:      t.Reduce,
		Check:       t.Check,
	}
}

// fromStats converts the distribution counters of one MPI-backend run.
func fromStats(st core.Stats) *DistStats {
	return &DistStats{
		Epochs:             st.Epochs,
		BarrierWait:        st.BarrierWait,
		ReduceTime:         st.ReduceTime,
		TransitionWait:     st.TransitionWait,
		CheckTime:          st.CheckTime,
		CommVolumePerEpoch: st.CommVolumePerEpoch,
		ReduceWireBytes:    st.WireBytes,
		RanksStarted:       st.RanksStarted,
		RanksFinished:      st.RanksStarted - st.RanksLost,
		RanksLost:          st.RanksLost,
		Recoveries:         st.Recoveries,
		Checkpoints:        st.Checkpoints,
	}
}

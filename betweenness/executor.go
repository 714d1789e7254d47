package betweenness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// Executor is a pluggable execution backend speaking the workload-generic
// contract: Run receives a tagged Workload (undirected, directed, or
// weighted) plus the resolved Params and must honour ctx cancellation by
// returning ctx.Err() within one epoch of the sampling loop (the diameter
// phase may run to completion first; see Estimate).
//
// Capabilities lists the workload kinds the backend can run;
// EstimateWorkload rejects any other kind with ErrUnsupportedWorkload
// before Run is invoked. All four built-in backends (Sequential,
// SharedMemory, LocalMPI, TCP) support all three kinds.
type Executor interface {
	// Name identifies the backend (recorded in Result.Backend).
	Name() string
	// Capabilities returns the workload kinds this backend supports.
	Capabilities() []WorkloadKind
	// Run executes the estimation for the workload with the resolved
	// parameters.
	Run(ctx context.Context, w Workload, p Params) (*Result, error)
}

// allWorkloadKinds is the capability set of every built-in backend.
func allWorkloadKinds() []WorkloadKind {
	return []WorkloadKind{WorkloadUndirected, WorkloadDirected, WorkloadWeighted}
}

// ErrRemoteCancelled reports that an MPI-backend run stopped early because
// another rank's context was cancelled; the local result carries no
// (eps, delta) guarantee. The rank whose context was cancelled gets its
// own ctx.Err() instead.
var ErrRemoteCancelled = core.ErrRemoteCancelled

// ErrCoordinatorLost reports that a distributed run's world rank 0 died —
// the one failure the in-run shrink-and-recalibrate recovery cannot absorb —
// or gave the run up on another rank's death before the sampling epochs.
// Test with errors.Is. Callers holding a distributed checkpoint (see
// WithDistCheckpoint) can resume from it; otherwise the run must restart,
// ideally on a smaller world or a single-process backend.
var ErrCoordinatorLost = core.ErrCoordinatorLost

// IsRankDeath reports whether err was caused by the death of an MPI/TCP
// rank (a crashed process, a silent peer past its liveness timeout, or a
// connection torn mid-operation). Most rank deaths are absorbed in-run by
// the shrink-and-recalibrate recovery; one that surfaces from Run means the
// world could not reconfigure around it — like ErrCoordinatorLost, the
// caller's options are retrying on a smaller world or degrading to a
// single-process backend.
func IsRankDeath(err error) bool {
	_, ok := mpi.AsRankDead(err)
	return ok
}

// engine is the session half of a built-in backend; a custom Executor lacks
// it and gets the one-shot handle (see Estimator).
type engine interface {
	Executor
	// bind builds the session's per-rank states from cfg; sts[0] is the one
	// the session reads — this process's rank in a TCP world, world rank 0
	// otherwise. A non-nil root is a restored rank-0 state to resume from.
	bind(w kadabra.Workload, p Params, cfg kadabra.Config, root *kadabra.EstimatorState) ([]*kadabra.EstimatorState, error)
	// advance runs the states until the target is reached, the budget in p
	// runs out, or ctx is cancelled, leaving them consistent in every case;
	// the MPI backends report their Table II counters.
	advance(ctx context.Context, sts []*kadabra.EstimatorState, p Params) (*core.Stats, error)
}

// coreConfig maps the public parameters onto the distributed run controls;
// of the embedded config Algorithm2 reads only the per-call budget.
func (p Params) coreConfig() core.Config {
	return core.Config{
		Config:             kadabra.Config{MaxSamples: p.MaxSamples, MaxDuration: p.MaxDuration},
		Strategy:           core.AggStrategy(p.Agg),
		RanksPerNode:       p.RanksPerNode,
		CheckpointInterval: p.DistCheckpointInterval,
	}
}

// rankThreads resolves the MPI backends' per-rank thread count: zero means
// one sampling thread per rank (the ranks themselves provide parallelism).
func rankThreads(p Params) int { return max(p.Threads, 1) }

// Sequential returns the single-threaded reference backend. It is the only
// backend whose sessions stop by the certified top-k rule (see WithTopK;
// undirected workload only — every other backend and workload derives the
// ranking from the final estimates).
func Sequential() Executor { return procExec{} }

// SharedMemory returns the epoch-based shared-memory backend (the paper's
// state-of-the-art competitor, its Ref. 24): Params.Threads wait-free
// sampling threads coordinated by thread 0 (zero means one per CPU core).
// This is the default backend.
func SharedMemory() Executor { return procExec{shm: true} }

// procExec is the single-process backend: kadabra's one state machine on
// its sequential engine, or on its shared-memory one.
type procExec struct{ shm bool }

func (e procExec) Name() string {
	if e.shm {
		return "shared-memory"
	}
	return "sequential"
}

func (procExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e procExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	return runSession(ctx, e, w, p)
}

func (e procExec) bind(w kadabra.Workload, p Params, cfg kadabra.Config, root *kadabra.EstimatorState) ([]*kadabra.EstimatorState, error) {
	if root == nil {
		threads := 0 // the sequential engine
		if e.shm {
			if threads = p.Threads; threads <= 0 {
				threads = runtime.GOMAXPROCS(0)
			}
		}
		var err error
		if root, err = kadabra.NewEstimatorState(w, threads, cfg); err != nil {
			return nil, err
		}
	}
	return []*kadabra.EstimatorState{root}, nil
}

func (procExec) advance(ctx context.Context, sts []*kadabra.EstimatorState, p Params) (*core.Stats, error) {
	return nil, sts[0].Run(ctx, p.kadabraConfig().NewBudget(time.Now()))
}

// certifiedTopK is the one place that decides which sessions stop by the
// certified top-k rule: WithTopK on the Sequential backend over an
// undirected workload. It returns the k the engine should certify, or 0
// for the uniform rule (the ranking is then derived from the estimates).
func certifiedTopK(exec Executor, w Workload, p Params) int {
	if exec == Sequential() && w.kind == WorkloadUndirected {
		return p.TopK
	}
	return 0
}

// runSession is a direct Executor.Run on a built-in backend: one fresh
// session, run once.
func runSession(ctx context.Context, e engine, w Workload, p Params) (*Result, error) {
	est, err := newEstimator(w, settings{Params: p, exec: e}, nil)
	if err != nil {
		return nil, err
	}
	return est.Run(ctx)
}

// LocalMPI returns the paper's epoch-based MPI parallelization (Algorithm
// 2) over procs in-process ranks — the single-machine analogue of an MPI
// job, with Params.Threads sampling threads per rank and optional
// hierarchical aggregation (WithHierarchical). Without WithThreads every
// rank runs one sampling thread, which is the paper's Algorithm 1.
func LocalMPI(procs int) Executor {
	return localExec{procs: procs}
}

type localExec struct {
	procs int
}

func (localExec) Name() string { return "local-mpi" }

func (localExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e localExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	return runSession(ctx, e, w, p)
}

func (e localExec) bind(w kadabra.Workload, p Params, cfg kadabra.Config, root *kadabra.EstimatorState) ([]*kadabra.EstimatorState, error) {
	if e.procs < 1 {
		return nil, fmt.Errorf("betweenness: local-mpi backend needs at least 1 process, got %d", e.procs)
	}
	sts, err := core.NewStates(w, e.procs, core.Config{Config: cfg, Threads: rankThreads(p)})
	if err == nil && root != nil {
		sts[0] = root
	}
	return sts, err
}

func (e localExec) advance(ctx context.Context, sts []*kadabra.EstimatorState, p Params) (*core.Stats, error) {
	cr, err := core.RunLocal(ctx, sts, p.coreConfig())
	if err != nil {
		return nil, err
	}
	return &cr.Stats, nil
}

// TCP returns a genuinely distributed backend: this process joins a TCP
// world as the given rank (hosts lists one host:port per rank, identical
// on every rank) and runs Algorithm 2 collectively with the other ranks.
// Every rank must make the same calls (Estimate, or NewEstimator and then
// the same sequence of Run and Refine) with a structurally identical graph,
// the same workload kind, and equal parameters; each Run connects a world
// and tears it down again. Only rank 0's session holds the samples: its
// Result carries the estimates, the other ranks return Estimates == nil,
// and it is rank 0's targets and checkpoint that count.
//
// Cancelling the context on any rank stops every rank within about one
// epoch: the cancelled rank returns its ctx.Err(), the others
// ErrRemoteCancelled.
func TCP(rank int, hosts []string) Executor {
	return tcpExec{rank: rank, hosts: strings.Join(hosts, ","), dialTimeout: 30 * time.Second}
}

type tcpExec struct {
	rank        int
	hosts       string // comma-joined, so executors stay comparable (Refine's guard)
	dialTimeout time.Duration
}

func (tcpExec) Name() string { return "tcp" }

func (tcpExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e tcpExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	return runSession(ctx, e, w, p)
}

func (e tcpExec) bind(w kadabra.Workload, p Params, cfg kadabra.Config, root *kadabra.EstimatorState) ([]*kadabra.EstimatorState, error) {
	if root == nil || e.rank != 0 {
		// A restored payload is world rank 0's; any other rank starts its
		// share of the session afresh and follows rank 0's announcement.
		var err error
		if root, err = kadabra.NewRankState(w, e.rank, strings.Count(e.hosts, ",")+1, rankThreads(p), cfg); err != nil {
			return nil, fmt.Errorf("betweenness: tcp: %w", err)
		}
	}
	return []*kadabra.EstimatorState{root}, nil
}

func (e tcpExec) advance(ctx context.Context, sts []*kadabra.EstimatorState, p Params) (*core.Stats, error) {
	comm, closer, err := mpi.ConnectTCP(e.rank, strings.Split(e.hosts, ","), e.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("betweenness: tcp connect: %w", err)
	}
	defer closer.Close()
	cr, algErr := core.Algorithm2(ctx, sts[0], comm, p.coreConfig())
	// Final barrier: no rank may tear down its connections while peers are
	// still draining collectives. After an in-run recovery the world
	// communicator's failure generation is stale, so the barrier would
	// fail by construction; the graceful-close goodbye handshake then
	// takes over the draining duty.
	if algErr == nil && cr.Stats.Recoveries == 0 {
		if berr := comm.Barrier(); berr != nil {
			return nil, fmt.Errorf("betweenness: tcp final barrier: %w", berr)
		}
	}
	if algErr != nil {
		return nil, algErr
	}
	return &cr.Stats, nil
}

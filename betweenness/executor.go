package betweenness

import (
	"context"
	"fmt"
	"runtime"
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
// the one failure the in-run shrink-and-recalibrate recovery cannot absorb.
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

// coreConfig maps the public parameters onto the internal distributed
// configuration. The progress callback is wired at the distributed level
// only (the per-epoch hook of the embedded sequential config is cleared so
// no future code path can fire it twice).
func (p Params) coreConfig() core.Config {
	cfg := core.Config{
		Config:       p.kadabraConfig(),
		Threads:      p.Threads,
		Strategy:     core.AggStrategy(p.Agg),
		RanksPerNode: p.RanksPerNode,
	}
	cfg.OnEpoch = cfg.Config.OnEpoch
	cfg.Config.OnEpoch = nil
	return cfg
}

// coreConfigFor extends coreConfig with the pieces that depend on the
// workload: the periodic distributed checkpoint is sealed in the standard
// session envelope with the workload's kind byte, so RestoreEstimator
// accepts it directly.
func (p Params) coreConfigFor(w Workload) core.Config {
	cfg := p.coreConfig()
	if p.DistCheckpointInterval > 0 && p.DistCheckpoint != nil {
		sink := p.DistCheckpoint
		kind := w.kind
		cfg.CheckpointInterval = p.DistCheckpointInterval
		cfg.OnCheckpoint = func(payload []byte) {
			sink(sealCheckpoint(kind, func(dst []byte) []byte {
				return append(dst, payload...)
			}))
		}
	}
	return cfg
}

// Sequential returns the single-threaded reference backend. It is the only
// backend whose sessions stop by the certified top-k rule (see WithTopK;
// undirected workload only — every other backend and workload derives the
// ranking from the final estimates).
func Sequential() Executor { return seqExec{} }

type seqExec struct{}

func (seqExec) Name() string { return "sequential" }

func (seqExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e seqExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	return runEngine(ctx, e, w, p, 0)
}

// SharedMemory returns the epoch-based shared-memory backend (the paper's
// state-of-the-art competitor, its Ref. 24): Params.Threads wait-free
// sampling threads coordinated by thread 0. This is the default backend.
func SharedMemory() Executor { return shmExec{} }

type shmExec struct{}

func (shmExec) Name() string { return "shared-memory" }

func (shmExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e shmExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	return runEngine(ctx, e, w, p, shmThreads(p))
}

// shmThreads resolves the shared-memory engine's thread count: zero means
// one sampling thread per CPU core.
func shmThreads(p Params) int {
	if p.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Threads
}

// certifiedTopK is the one place that decides which sessions stop by the
// certified top-k rule: WithTopK on the Sequential backend over an
// undirected workload. It returns the k the engine should certify, or 0
// for the uniform rule (the ranking is then derived from the estimates).
func certifiedTopK(exec Executor, w Workload, p Params) int {
	if _, seq := exec.(seqExec); seq && w.kind == WorkloadUndirected {
		return p.TopK
	}
	return 0
}

// runEngine is a direct Executor.Run on a single-process backend: one
// kadabra session run to completion (threads == 0 selects the sequential
// engine).
func runEngine(ctx context.Context, e Executor, w Workload, p Params, threads int) (*Result, error) {
	if err := w.checkRunnable(e); err != nil {
		return nil, err
	}
	cfg := p.kadabraConfig()
	cfg.TopK = certifiedTopK(e, w, p)
	kr, err := kadabra.Run(ctx, w.inner, threads, cfg)
	if err != nil {
		return nil, err
	}
	res := fromKadabra(e.Name(), kr)
	if cfg.TopK > 0 {
		res.Top = res.TopK(cfg.TopK)
	}
	return res, nil
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
	if err := w.checkRunnable(e); err != nil {
		return nil, err
	}
	if e.procs < 1 {
		return nil, fmt.Errorf("betweenness: local-mpi backend needs at least 1 process, got %d", e.procs)
	}
	cr, err := core.RunLocal(ctx, w.inner, e.procs, p.coreConfigFor(w))
	if err != nil {
		return nil, err
	}
	return fromCore(e.Name(), cr), nil
}

// TCP returns a genuinely distributed backend: this process joins a TCP
// world as the given rank (hosts lists one host:port per rank, identical
// on every rank) and runs Algorithm 2 collectively with the other ranks.
// Every rank must call Estimate (or EstimateWorkload) with a structurally
// identical graph, the same workload kind, and equal parameters. Only rank
// 0's Result carries the estimates; the other ranks return
// Estimates == nil.
//
// Cancelling the context on any rank stops every rank within about one
// epoch: the cancelled rank returns its ctx.Err(), the others
// ErrRemoteCancelled.
func TCP(rank int, hosts []string) Executor {
	return tcpExec{rank: rank, hosts: hosts, dialTimeout: 30 * time.Second}
}

type tcpExec struct {
	rank        int
	hosts       []string
	dialTimeout time.Duration
}

func (tcpExec) Name() string { return "tcp" }

func (tcpExec) Capabilities() []WorkloadKind { return allWorkloadKinds() }

func (e tcpExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	if err := w.checkRunnable(e); err != nil {
		return nil, err
	}
	if e.rank < 0 || e.rank >= len(e.hosts) {
		return nil, fmt.Errorf("betweenness: tcp rank %d out of range for %d hosts", e.rank, len(e.hosts))
	}
	comm, closer, err := mpi.ConnectTCP(e.rank, e.hosts, e.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("betweenness: tcp connect: %w", err)
	}
	defer closer.Close()
	cr, algErr := core.Algorithm2(ctx, w.inner, comm, p.coreConfigFor(w))
	// Final barrier: no rank may tear down its connections while peers are
	// still draining collectives. After an in-run recovery the world
	// communicator's failure generation is stale, so the barrier would
	// fail by construction; the graceful-close goodbye handshake then
	// takes over the draining duty.
	if algErr == nil && (cr == nil || cr.Stats.Recoveries == 0) {
		if berr := comm.Barrier(); berr != nil {
			return nil, fmt.Errorf("betweenness: tcp final barrier: %w", berr)
		}
	}
	if algErr != nil {
		return nil, algErr
	}
	return fromCore("tcp", cr), nil
}

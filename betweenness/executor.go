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

// Executor selects the execution backend of a session: one of the four
// values Sequential, SharedMemory, LocalMPI and TCP return. Every backend
// runs every workload kind, owns its session's sampling state, follows the
// one check schedule and stops by the certified top-k rule under WithTopK;
// the backends differ only in the shape of the world. The zero
// Executor is not a backend; WithExecutor rejects it. Executors are
// comparable: two are equal exactly when they name the same backend of the
// same shape.
type Executor struct {
	kind  backendKind
	procs int    // LocalMPI: in-process ranks
	rank  int    // TCP: this process's rank
	hosts string // TCP: comma-joined host:port per rank, so Executor stays comparable
}

type backendKind uint8

const (
	_ backendKind = iota // the zero Executor
	backendSequential
	backendSharedMemory
	backendLocalMPI
	backendTCP
)

var backendNames = [...]string{"", "sequential", "shared-memory", "local-mpi", "tcp"}

// tcpDialTimeout bounds how long a TCP rank waits for its world to connect.
const tcpDialTimeout = 30 * time.Second

// Name identifies the backend (recorded in Result.Backend).
func (e Executor) Name() string { return backendNames[e.kind] }

// ErrRemoteCancelled reports that an MPI-backend run stopped early because
// another rank's context was cancelled; the local result carries no
// (eps, delta) guarantee. The rank whose context was cancelled gets its
// own ctx.Err() instead.
var ErrRemoteCancelled = core.ErrRemoteCancelled

// ErrCoordinatorLost reports that a distributed run's world rank 0 died —
// the one failure the in-run shrink-and-recalibrate recovery cannot absorb —
// or gave the run up on another rank's death before the sampling epochs.
// Test with errors.Is. The one recovery path is a WithDistCheckpoint
// capture: RestoreEstimator resumes it on a world of the same shape.
// Without one, the run starts over.
var ErrCoordinatorLost = core.ErrCoordinatorLost

// Sequential returns the single-threaded reference backend: Algorithm 2 on
// a one-rank world with one thread — the SharedMemory backend's schedule
// at WithThreads(1), KADABRA's sequential loop — so a run is deterministic
// under its seed and resumes bit-identically. It ignores WithThreads.
func Sequential() Executor { return Executor{kind: backendSequential} }

// SharedMemory returns the epoch-based shared-memory backend (the paper's
// state-of-the-art competitor, its Ref. 24, which is Algorithm 2 on a
// one-rank world): WithThreads wait-free sampling threads coordinated by
// thread 0 (zero means one per CPU core). This is the default backend.
func SharedMemory() Executor { return Executor{kind: backendSharedMemory} }

// LocalMPI returns the paper's epoch-based MPI parallelization (Algorithm
// 2) over procs in-process ranks — the single-machine analogue of an MPI
// job, with WithThreads sampling threads per rank and optional
// hierarchical aggregation (WithHierarchical). Without WithThreads every
// rank runs one sampling thread, which is the paper's Algorithm 1.
func LocalMPI(procs int) Executor { return Executor{kind: backendLocalMPI, procs: procs} }

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
	return Executor{kind: backendTCP, rank: rank, hosts: strings.Join(hosts, ",")}
}

// bind builds a session's per-rank states from cfg; sts[0] is the one the
// session reads — this process's rank in a TCP world, world rank 0
// otherwise. A non-nil root is a restored rank-0 state to resume from.
func (e Executor) bind(w kadabra.Workload, s settings, cfg kadabra.Config, root *kadabra.EstimatorState) ([]*kadabra.EstimatorState, error) {
	var err error
	switch e.kind {
	case backendLocalMPI:
		if e.procs < 1 {
			return nil, fmt.Errorf("betweenness: local-mpi backend needs at least 1 process, got %d", e.procs)
		}
		sts, err := core.NewStates(w, e.procs, core.Config{Config: cfg, Threads: s.rankThreads()})
		if err == nil && root != nil {
			sts[0] = root
		}
		return sts, err
	case backendTCP:
		if root == nil || e.rank != 0 {
			// A restored payload is world rank 0's; any other rank starts its
			// share of the session afresh and follows rank 0's announcement.
			if root, err = kadabra.NewRankState(w, e.rank, strings.Count(e.hosts, ",")+1, s.rankThreads(), cfg); err != nil {
				return nil, fmt.Errorf("betweenness: tcp: %w", err)
			}
		}
	default: // Sequential, SharedMemory
		if root == nil {
			threads := 1
			if e.kind == backendSharedMemory {
				if threads = s.Threads; threads <= 0 {
					threads = runtime.GOMAXPROCS(0)
				}
			}
			if root, err = kadabra.NewEstimatorState(w, threads, cfg); err != nil {
				return nil, err
			}
		}
	}
	return []*kadabra.EstimatorState{root}, nil
}

// advance runs the states through core.Algorithm2 until the target is
// reached, the budget in s runs out, or ctx is cancelled, leaving them
// consistent in every case, and returns the run's Table II counters. All it
// chooses is the communicator: a TCP world, or an in-process world of
// len(sts) ranks — one, for a single-process session.
func (e Executor) advance(ctx context.Context, sts []*kadabra.EstimatorState, s settings) (*core.Stats, error) {
	var cr *core.Result
	var err error
	if e.kind == backendTCP {
		comm, closer, cerr := mpi.ConnectTCP(e.rank, strings.Split(e.hosts, ","), tcpDialTimeout)
		if cerr != nil {
			return nil, fmt.Errorf("betweenness: tcp connect: %w", cerr)
		}
		defer closer.Close()
		cr, err = core.Algorithm2(ctx, sts[0], comm, s.coreConfig())
		// Final barrier: no rank may tear down its connections while peers are
		// still draining collectives. After an in-run recovery the world
		// communicator's failure generation is stale, so the barrier would
		// fail by construction; the graceful-close goodbye handshake then
		// takes over the draining duty.
		if err == nil && cr.Stats.Recoveries == 0 {
			if berr := comm.Barrier(); berr != nil {
				return nil, fmt.Errorf("betweenness: tcp final barrier: %w", berr)
			}
		}
	} else {
		cr, err = core.RunLocal(ctx, sts, s.coreConfig())
	}
	if err != nil {
		return nil, err
	}
	return &cr.Stats, nil
}

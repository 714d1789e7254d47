package betweenness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kadabra"
)

// settings are the resolved estimation parameters: the defaults with the
// options applied over them.
type settings struct {
	// Epsilon is the absolute approximation error (default 0.01; the
	// paper's main experiments use 0.001).
	Epsilon float64
	// Delta is the failure probability (default 0.1).
	Delta float64
	// Seed makes runs reproducible; worker RNG streams split from it
	// (default 1).
	Seed uint64
	// Threads is the number of sampling threads per process. Zero means
	// one per CPU core on the SharedMemory backend and one per rank on
	// the MPI backends (where the ranks themselves provide parallelism).
	Threads int
	// TopK, when positive, asks for the k highest-betweenness vertices,
	// certified by the top-k stopping rule (see WithTopK).
	TopK int
	// RanksPerNode, when > 1, enables hierarchical aggregation (§IV-E)
	// with the given group size (MPI backends).
	RanksPerNode int
	// Progress, when non-nil, receives a Snapshot after every epoch.
	Progress func(Snapshot)
	// VertexDiameter, when positive, skips the diameter phase and uses
	// the given value: a restored session's recorded bound.
	VertexDiameter int
	// MaxSamples, when positive, is an absolute sampling budget: the run
	// stops once tau reaches it, reporting the achieved guarantee (see
	// WithMaxSamples).
	MaxSamples int64
	// MaxDuration, when positive, is a wall-clock budget per call (see
	// WithMaxDuration).
	MaxDuration time.Duration
	// DistCheckpointInterval, when positive, makes the MPI/TCP backends
	// capture a checkpoint every that many epochs (see WithDistCheckpoint).
	DistCheckpointInterval int
	// DistCheckpoint receives each of them; it must be set together with
	// DistCheckpointInterval.
	DistCheckpoint func(payload []byte)
	// exec is the backend (default SharedMemory()).
	exec Executor
}

// kadabraConfig maps the settings onto the internal KADABRA configuration.
// (The progress callback is wired on the session's state, by
// Estimator.wireProgress.)
func (s settings) kadabraConfig() kadabra.Config {
	return kadabra.Config{
		Eps:            s.Epsilon,
		Delta:          s.Delta,
		Seed:           s.Seed,
		TopK:           s.TopK,
		VertexDiameter: s.VertexDiameter,
		MaxSamples:     s.MaxSamples,
		MaxDuration:    s.MaxDuration,
	}
}

// coreConfig maps the settings onto the distributed run controls; of the
// embedded config Algorithm2 reads only the per-call budget.
func (s settings) coreConfig() core.Config {
	return core.Config{
		Config:             kadabra.Config{MaxSamples: s.MaxSamples, MaxDuration: s.MaxDuration},
		RanksPerNode:       s.RanksPerNode,
		CheckpointInterval: s.DistCheckpointInterval,
	}
}

// rankThreads resolves the MPI backends' per-rank thread count: zero means
// one sampling thread per rank (the ranks themselves provide parallelism).
func (s settings) rankThreads() int { return max(s.Threads, 1) }

func defaultSettings() settings {
	return settings{Epsilon: 0.01, Delta: 0.1, Seed: 1, exec: SharedMemory()}
}

// Option configures one aspect of an Estimate call. Options validate their
// arguments eagerly; the first failing option aborts Estimate.
type Option func(*settings) error

// WithEpsilon sets the absolute approximation error: with probability
// 1-delta every estimate is within eps of the true betweenness. Must be in
// (0, 1). Smaller values sharply increase running time (~1/eps^2 samples).
func WithEpsilon(eps float64) Option {
	return func(s *settings) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("betweenness: epsilon must be in (0, 1), got %g", eps)
		}
		s.Epsilon = eps
		return nil
	}
}

// WithDelta sets the failure probability. Must be in (0, 1).
func WithDelta(delta float64) Option {
	return func(s *settings) error {
		if delta <= 0 || delta >= 1 {
			return fmt.Errorf("betweenness: delta must be in (0, 1), got %g", delta)
		}
		s.Delta = delta
		return nil
	}
}

// WithSeed sets the RNG seed; runs with equal seeds, parameters, and
// backend are deterministic.
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.Seed = seed
		return nil
	}
}

// WithThreads sets the number of sampling threads per process. Zero (the
// default) means one thread per CPU core on the SharedMemory backend and
// one thread per rank on the MPI backends; the Sequential backend is one
// thread and ignores it.
func WithThreads(threads int) Option {
	return func(s *settings) error {
		if threads < 0 {
			return fmt.Errorf("betweenness: threads must be >= 0, got %d", threads)
		}
		s.Threads = threads
		return nil
	}
}

// WithTopK asks for the k highest-betweenness vertices, filling
// Result.Top. The session stops by the KADABRA top-k rule instead of the
// uniform one, on every backend and workload: it certifies the ranking
// (Result.Separated, Result.Lower/Upper) and usually stops much earlier
// than a uniform estimate. It is an ordinary session in every other
// respect — budgets, Snapshot, Refine (WithTopK there re-targets the
// rule), Checkpoint; the rule and its k are part of the checkpoint, so
// RestoreEstimator resumes under it without being told. The rule is chosen
// when the session is built (NewEstimator): WithTopK on a Refine or a
// restore of a uniform session ranks the estimates, it never swaps the
// guarantee.
func WithTopK(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("betweenness: top-k must be >= 1, got %d", k)
		}
		s.TopK = k
		return nil
	}
}

// WithHierarchical enables the hierarchical aggregation of §IV-E on the
// MPI backends: consecutive groups of ranksPerNode ranks form a "compute
// node" (the paper uses one rank per NUMA socket) whose frames are reduced
// node-locally before the group leaders run the global reduction.
func WithHierarchical(ranksPerNode int) Option {
	return func(s *settings) error {
		if ranksPerNode < 1 {
			return fmt.Errorf("betweenness: ranks per node must be >= 1, got %d", ranksPerNode)
		}
		s.RanksPerNode = ranksPerNode
		return nil
	}
}

// WithProgress registers a callback invoked after every completed epoch
// with a consistent progress snapshot. It runs on the coordinator thread
// between the stopping check and the next epoch, so it must be cheap.
func WithProgress(fn func(Snapshot)) Option {
	return func(s *settings) error {
		s.Progress = fn
		return nil
	}
}

// WithMaxSamples sets an absolute sampling budget: the estimate stops once
// the consistent sample count tau reaches n, even if the target eps has not
// been reached. The result then carries Converged == false and reports the
// guarantee the samples actually support in Result.AchievedEps. At one
// thread on one rank (Sequential, or WithThreads(1) on SharedMemory) the
// stop lands on exactly n samples; more threads or ranks stop within one
// epoch of it. With an Estimator the budget
// applies to the session's total sample count, so a Run that stopped at the
// budget resumes from it when Run or Refine is called with a larger one.
func WithMaxSamples(n int64) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("betweenness: max samples must be >= 1, got %d", n)
		}
		s.MaxSamples = n
		return nil
	}
}

// WithMaxDuration sets a wall-clock budget: the run returns within about
// one epoch of d elapsing. The clock starts at each Run or Refine call —
// the cached diameter phase already ran in NewEstimator. Like
// WithMaxSamples, an early stop reports Converged == false and the
// achieved guarantee in Result.AchievedEps. The budget is per call: each
// Estimator.Run or Refine gets a fresh d.
func WithMaxDuration(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("betweenness: max duration must be positive, got %v", d)
		}
		s.MaxDuration = d
		return nil
	}
}

// WithDistCheckpoint makes the MPI/TCP backends emit a periodic checkpoint
// every `every` epochs: world rank 0 requests the session's own in-run
// capture (the one RequestCheckpoint arms), the payload rides to every rank
// on the termination-broadcast frame (no extra collective), and each
// process hands the sealed envelope to sink — exactly as if sink had been
// registered with SetCheckpointSink. The payload is a standard session
// checkpoint: RestoreEstimator resumes it as a distributed session of the
// same shape, so any surviving rank's copy restarts the job after a
// coordinator (rank 0) death, the one failure the in-run shrink-and-
// recalibrate recovery cannot absorb. The loss is bounded by one interval
// of samples.
//
// sink runs on the coordinator goroutine between epochs, once per process
// (an in-process LocalMPI world calls it at rank 0 only): hand the payload
// off (say, an atomic file write) rather than block in it. On the
// single-process backends nothing requests the periodic capture.
func WithDistCheckpoint(every int, sink func(payload []byte)) Option {
	return func(s *settings) error {
		if every < 1 {
			return fmt.Errorf("betweenness: checkpoint interval must be >= 1 epoch, got %d", every)
		}
		if sink == nil {
			return fmt.Errorf("betweenness: checkpoint sink must not be nil")
		}
		s.DistCheckpointInterval = every
		s.DistCheckpoint = sink
		return nil
	}
}

// WithExecutor selects the execution backend (default SharedMemory()).
func WithExecutor(e Executor) Option {
	return func(s *settings) error {
		if e == (Executor{}) {
			return fmt.Errorf("betweenness: zero executor (use Sequential, SharedMemory, LocalMPI, or TCP)")
		}
		s.exec = e
		return nil
	}
}

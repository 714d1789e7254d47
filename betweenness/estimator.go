package betweenness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/kadabra"
)

// Estimator is a long-lived, resumable estimation session over one
// workload: the anytime front door the adaptive-sampling algorithm has
// deserved all along — after every epoch it holds a valid (eps', delta)
// guarantee that only tightens until tau passes omega, where it becomes the
// target eps — so a session can answer coarse-and-fast now, keep refining
// later, and survive restarts in between.
//
// NewEstimator validates the workload once, takes the workload's vertex
// diameter (resolved by the first estimator on that Workload value), and
// owns the sampling state from then on:
//
//   - Run samples until the target eps is reached, the budget
//     (WithMaxSamples, WithMaxDuration) runs out, or ctx is cancelled —
//     in every case the state stays consistent and the session resumable.
//   - Snapshot reports the current estimates and the achieved eps at any
//     time, in the same Snapshot type WithProgress streams.
//   - Refine continues sampling toward a tighter eps or a larger top-k,
//     reusing every prior sample: the error bounds are recalibrated from
//     the accumulated counts, never reset.
//   - Checkpoint/RestoreEstimator serialize the per-vertex counts,
//     calibration, epoch counters, stopping rule and the engine's shape, so
//     a run interrupted mid-sampling resumes in a fresh process where it
//     stopped, on the backend it ran on.
//
// This holds on every backend — one state machine advanced by one
// engine, the paper's Algorithm 2 (on a one-rank in-process world for
// SharedMemory and Sequential); a distributed session's state lives at
// world rank 0 between the collective runs. Every backend stops within one
// epoch of a WithMaxDuration deadline. One rule says what a resume
// reproduces: a one-thread session (Sequential, which is SharedMemory at
// WithThreads(1)) resumes sample for sample (bit-identical to never having
// stopped); every other resume is
// statistically equivalent — a capture taken while threads or ranks were
// drawing from their RNG streams continues on fresh ones, and the
// guarantee depends on how many samples were drawn, never on which.
//
// Methods are safe for concurrent use; Run and Refine serialize behind one
// mutex, and Snapshot never blocks on a running estimate (it returns the
// latest per-epoch observation instead).
type Estimator struct {
	mu sync.Mutex
	w  Workload
	s  settings
	// sts are the session's states, advanced by s.exec; st is sts[0], the
	// one the session reads (see Executor.bind).
	sts []*kadabra.EstimatorState
	st  *kadabra.EstimatorState

	snapMu sync.Mutex
	last   Snapshot
}

// NewEstimator creates an estimation session for the workload. The options
// are those of Estimate — which is itself NewEstimator followed by one
// Run; the workload validation rule runs here, and so does the
// vertex-diameter phase (at world rank 0 of an MPI backend), so the first
// Run starts sampling immediately.
func NewEstimator(w Workload, opts ...Option) (*Estimator, error) {
	s, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	return newEstimator(w, s, nil)
}

// newEstimator builds the session for resolved settings — from root, a
// restored world-rank-0 state, when given, else fresh.
func newEstimator(w Workload, s settings, root *kadabra.EstimatorState) (*Estimator, error) {
	if err := w.checkRunnable(s); err != nil {
		return nil, err
	}
	cfg := s.kadabraConfig() // its budgets are enforced per Run/Refine call, by advance
	if root != nil {
		cfg = root.Config()
		cfg.VertexDiameter = s.VertexDiameter // the other ranks' states skip phase 1 too
	}
	sts, err := s.exec.bind(w.inner, s, cfg, root)
	if err != nil {
		return nil, err
	}
	e := &Estimator{w: w, s: s, sts: sts, st: sts[0]}
	e.wireProgress()
	e.wireCheckpoint()
	e.observeState()
	return e, nil
}

// wireProgress registers the machine's per-epoch hook iff a user callback
// is present: the hook costs an O(n) achieved-eps sweep per epoch, which
// silent sessions must not pay. Callers hold e.mu.
func (e *Estimator) wireProgress() {
	if e.s.Progress == nil {
		e.st.SetOnEpoch(nil)
		return
	}
	e.st.SetOnEpoch(func(kp kadabra.Progress) {
		e.deliver(fromProgress(kp))
	})
}

// wireCheckpoint registers the WithCheckpointEvery sink on the session's
// state, sealing each in-run capture into the BCSE envelope. At world rank
// 0, which holds the samples, it first refreshes the observation Snapshot
// serves mid-run from the captured state (unchanged until the next fold),
// so Snapshot never reads behind a persisted capture: one O(n) Progress
// per capture. Callers hold e.mu.
func (e *Estimator) wireCheckpoint() {
	sink := e.s.CheckpointSink
	if sink == nil {
		e.st.SetOnCheckpoint(nil)
		return
	}
	kind := e.w.kind
	e.st.SetOnCheckpoint(func(payload []byte) {
		if e.st.Rank() == 0 {
			e.observeState()
		}
		sink(sealCheckpoint(kind, func(dst []byte) []byte {
			return append(dst, payload...)
		}))
	})
}

// deliver records the latest observation (for Snapshot during a run) and
// forwards it to the user callback. It runs on the coordinating goroutine
// of Run/Refine, which holds e.mu, so reading e.s is race-free.
func (e *Estimator) deliver(snap Snapshot) {
	e.storeLast(snap)
	if e.s.Progress != nil {
		e.s.Progress(snap)
	}
}

// Run advances the session until the current target eps is reached, the
// budget (WithMaxSamples, WithMaxDuration) runs out, or ctx is cancelled,
// and returns the result of the accumulated state. One NewEstimator + Run
// is exactly Estimate; unlike it, a budget- or cancellation-stopped
// session keeps its samples — call Run again to continue toward the same
// target (a fresh wall-clock budget per call), Refine to retarget, or
// Checkpoint to persist. Run after convergence returns the same result
// without sampling. On cancellation the completed work is retained but no
// Result is returned; Snapshot still reads the state.
//
// On an MPI backend a Run is collective: LocalMPI spins up its in-process
// world for the call, and every rank of a TCP world must call Run.
func (e *Estimator) Run(ctx context.Context) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runLocked(ctx)
}

func (e *Estimator) runLocked(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //bc:ctxok nil-ctx guard at the public front door
	}
	stats, err := e.s.exec.advance(ctx, e.sts, e.s)
	if err != nil {
		e.observeState()
		// Normalize: a cancellation surfaces as the bare ctx error even
		// when a backend wrapped it (e.g. with the failing MPI rank).
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, ctxErr
		}
		return nil, err
	}
	// Only world rank 0 of a TCP session holds the samples; the other
	// ranks report their communication statistics.
	res := &Result{Backend: e.s.exec.Name()}
	if e.st.Rank() == 0 {
		res = fromKadabra(res.Backend, e.st.Result())
		if e.s.TopK > 0 {
			res.Top = res.TopK(e.s.TopK)
		}
	}
	if e.st.Procs() > 0 { // a one-rank world has no distribution to report
		res.Distributed = fromStats(*stats)
	}
	// Derive the observation from the result just built — Result() already
	// paid the O(n) achieved-eps sweep, no need for a second one.
	e.storeLast(Snapshot{Epoch: res.Epochs, Tau: res.Tau, AchievedEps: res.AchievedEps})
	return res, nil
}

// observeState refreshes the last observation from the steppable state.
// Callers hold e.mu.
func (e *Estimator) observeState() {
	e.storeLast(fromProgress(e.st.Progress()))
}

func (e *Estimator) storeLast(snap Snapshot) {
	e.snapMu.Lock()
	e.last = snap
	e.snapMu.Unlock()
}

// Refine continues the session toward new targets, reusing every
// accumulated sample. The recognized options are the statistical targets
// and per-call knobs: WithEpsilon and WithDelta retarget the guarantee
// (the error bounds are recalibrated from the current counts — the sample
// count never resets, so refining to a tighter eps strictly grows tau);
// WithTopK sets or changes k — on a session that stops by the certified
// top-k rule it re-targets the rule (sampling resumes until the new top
// set is certified), on a uniform one it re-derives the ranking from the existing
// samples; WithMaxSamples, WithMaxDuration, WithProgress and
// WithCheckpointEvery replace the session's budget, progress stream and
// in-run capture (interval and sink). Options that would change the
// session's statistical identity — seed, threads, executor, diameter knobs
// — are rejected: start a new Estimator for those.
//
// On an MPI backend Refine is collective like Run, and world rank 0's
// targets are the ones that count: it announces them to the other ranks
// when the run starts.
func (e *Estimator) Refine(ctx context.Context, opts ...Option) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ns := e.s
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&ns); err != nil {
			return nil, err
		}
	}
	if err := e.refineGuard(ns); err != nil {
		return nil, err
	}
	if err := checkSize(e.w.n, ns); err != nil {
		return nil, err
	}
	if ns.Epsilon != e.s.Epsilon || ns.Delta != e.s.Delta {
		// A tighter target needs sampling headroom: refuse to recalibrate
		// into a session whose sample budget is already spent — a silent
		// zero-sample "refinement" would betray the strictly-grows
		// contract. (Top-k-only refines pass through: they are served
		// from the existing samples, or — re-targeting the certified rule
		// on a spent budget — report Converged == false honestly.)
		if ns.MaxSamples > 0 && ns.MaxSamples <= e.st.Tau() {
			return nil, fmt.Errorf(
				"betweenness: sampling budget (max samples %d) already spent at tau=%d; raise WithMaxSamples to refine",
				ns.MaxSamples, e.st.Tau())
		}
		e.st.Recalibrate(ns.Epsilon, ns.Delta)
	}
	// The stopping rule was chosen when the session was built: only a
	// certified session follows k; a uniform one keeps its guarantee.
	if e.st.Config().TopK > 0 {
		if err := e.st.SetTopK(ns.TopK); err != nil {
			return nil, err
		}
	}
	e.s = ns
	e.wireProgress()
	e.wireCheckpoint()
	return e.runLocked(ctx)
}

// refineGuard rejects option changes that would invalidate the accumulated
// sampling state.
func (e *Estimator) refineGuard(ns settings) error {
	old := e.s
	reject := func(what string) error {
		return fmt.Errorf("betweenness: cannot change the %s of a session in Refine; start a new Estimator", what)
	}
	switch {
	case ns.Seed != old.Seed:
		return reject("seed")
	case ns.Threads != old.Threads:
		return reject("thread count")
	case ns.exec != old.exec:
		return reject("executor")
	}
	return nil
}

// Snapshot reports the session's current state at any time: estimates,
// achieved eps, sample count, and throughput, in the same type the
// WithProgress stream delivers. Called between runs it reads the state
// directly (and materializes Estimates); called during an active Run it
// returns the latest observation without blocking — fresh to within one
// epoch when a progress callback is registered, otherwise the state as of
// the run's start or its latest WithCheckpointEvery capture.
func (e *Estimator) Snapshot() Snapshot {
	if e.mu.TryLock() {
		defer e.mu.Unlock()
		snap := fromProgress(e.st.Progress())
		snap.Estimates = e.st.Estimates()
		return snap
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	return e.last
}

// Backend names the executor the session runs on — for a restored session
// the one its checkpoint's shape names (see RestoreEstimator).
func (e *Estimator) Backend() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.exec.Name()
}

// Checkpointable reports whether Checkpoint can serialize this session. It
// always can: every backend's session owns its state.
func (e *Estimator) Checkpointable() bool { return true }

// The checkpoint envelope: magic, format version, workload kind, then the
// engine payload, closed by a CRC-32 (IEEE) of everything before it so
// truncation and bit rot fail loudly on restore.
const (
	ckptMagic     = "BCSE" // betweenness checkpoint, session estimator
	ckptVersion   = 1
	ckptHeaderLen = 4 + 2 + 1 + 1
	ckptMinLen    = ckptHeaderLen + 4
)

// Checkpoint writes a versioned serialization of the session — backend
// shape (engine, threads, ranks), stopping rule, per-vertex counts,
// calibration budgets, epoch counters, the statistical targets, and the RNG
// streams where the session holds them (single-process sessions) — to w,
// so RestoreEstimator can resume it in a fresh process. The graph is not
// serialized; the restorer supplies the same workload. Call it between
// runs, after a budget stop, or after a cancelled Run (the completed work
// is captured; samples of the epoch in flight at the cancellation are not,
// by design). What a resume reproduces is stated on Estimator. In a TCP
// world it is world rank 0's checkpoint that carries the samples.
func (e *Estimator) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf := sealCheckpoint(e.w.kind, e.st.AppendCheckpoint)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("betweenness: writing checkpoint: %w", err)
	}
	return nil
}

// sealCheckpoint wraps an engine payload in the BCSE envelope. The payload
// is appended directly into the envelope buffer by appendPayload — either
// a live serializer (EstimatorState.AppendCheckpoint) or a closure over
// pre-built bytes (an in-run capture).
func sealCheckpoint(kind WorkloadKind, appendPayload func([]byte) []byte) []byte {
	buf := make([]byte, 0, ckptMinLen)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = append(buf, byte(kind), 0)
	buf = appendPayload(buf)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// RestoreEstimator reconstructs a session from a Checkpoint stream,
// re-binding it to w — a workload of the same kind over the same graph the
// checkpoint was taken from (kind and vertex count are verified; the graph
// itself is the caller's contract). The session resumes on the backend it
// was checkpointed from — SharedMemory with its threads (one, for a
// Sequential session), or LocalMPI with its ranks and threads per rank —
// with the serialized
// statistical identity (eps, delta, seed, vertex diameter, stopping rule);
// options supply what a checkpoint cannot carry — WithProgress,
// WithMaxSamples, WithMaxDuration, WithCheckpointEvery, and WithExecutor
// with a TCP executor, which resumes a distributed session as this rank of
// that world (every rank restores, or starts fresh: rank 0's state is the
// one that counts) — and any statistical options are superseded by the
// checkpoint (use Refine to retarget afterwards). What a resume reproduces
// is stated once, on Estimator.
//
// A checkpoint records its stopping rule, so a certified top-k session
// comes back certified, with its k, and a uniform one uniform — WithTopK
// here only asks for a ranking of that many vertices. Checkpoints written
// before the rule was recorded (format version 1) are the exception: there
// WithTopK names the rule exactly as it does at NewEstimator, and their
// mid-run captures of shared-memory and MPI sessions restore as one-thread
// sessions, as they always did.
//
// The stream is untrusted: truncated, corrupted, or version-skewed bytes
// return an error, never panic.
func RestoreEstimator(r io.Reader, w Workload, opts ...Option) (*Estimator, error) {
	if err := w.err; err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("betweenness: reading checkpoint: %w", err)
	}
	if len(data) < ckptMinLen {
		return nil, fmt.Errorf("betweenness: checkpoint too short (%d bytes)", len(data))
	}
	if string(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("betweenness: not an estimator checkpoint (bad magic)")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("betweenness: checkpoint checksum mismatch (truncated or corrupted)")
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != ckptVersion {
		return nil, fmt.Errorf("betweenness: unsupported checkpoint version %d (want %d)", v, ckptVersion)
	}
	if kind := WorkloadKind(data[6]); kind != w.kind {
		return nil, fmt.Errorf("betweenness: checkpoint holds a %s session, workload is %s", kind, w.kind)
	}
	st, err := kadabra.RestoreEstimatorState(body[ckptHeaderLen:], w.inner)
	if err != nil {
		return nil, err
	}
	s, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	// The statistical identity and the backend's shape live in the
	// checkpoint: a single-process state resumes on SharedMemory at its
	// threads, a distributed one on its ranks (or as this rank of a TCP
	// world).
	cfg := st.Config()
	s.Epsilon, s.Delta, s.Seed = cfg.Eps, cfg.Delta, cfg.Seed
	s.VertexDiameter = st.VertexDiameter()
	s.Threads = st.Threads()
	switch {
	case st.Procs() == 0:
		s.exec = SharedMemory()
	case s.exec.kind != backendTCP:
		s.exec = LocalMPI(st.Procs())
	}
	if !st.RuleRecorded() {
		// Version 1: k is session configuration, not checkpoint content —
		// the restorer names the stopping rule as NewEstimator's caller does.
		if err := st.SetTopK(s.TopK); err != nil {
			return nil, err
		}
	} else if cfg.TopK > 0 {
		s.TopK = cfg.TopK
	}
	return newEstimator(w, s, st)
}

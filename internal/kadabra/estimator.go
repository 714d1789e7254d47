package kadabra

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/rng"
)

// This file is the anytime core of every single-process KADABRA driver: an
// epoch-stepped state machine that owns the resumable sampling state — the
// accumulated state frame, the per-thread RNG streams, the calibration, and
// the stopping schedule — and exposes it in pieces the run-to-completion
// functions never could: Run with a Budget (stop early, stay consistent),
// Recalibrate (tighten eps while keeping every sample), and a versioned
// checkpoint codec (resume in a fresh process). The package-level Run is
// one session run to completion, so one-shot estimates and the session API
// are the same code path sample for sample. The stopping rule is the one
// thing a session chooses: the uniform (eps, delta) rule by default, the
// certified top-k rule when Config.TopK is set (see haveToStop).

// Engine selection: threads == 0 is the sequential reference engine (the
// plain KADABRA loop on one RNG stream, deterministic and bit-exactly
// resumable); threads >= 1 is the epoch-based shared-memory engine of the
// paper's Ref. 24 with that many wait-free sampling threads.
const (
	engineSequential   = 0
	engineSharedMemory = 1
)

// calCheckEvery is the cadence (in samples) of the context/budget checks
// inside the sequential calibration and deadline-bounded sampling loops.
// The checks consume no randomness, so the cadence never affects results.
const calCheckEvery = 64

// EstimatorState is the resumable core of a KADABRA estimation session over
// one workload. It is created by NewEstimatorState (which validates the
// workload and resolves the vertex diameter once), advanced by Run — every
// return leaves the state quiescent and consistent, whether the run
// converged, exhausted its budget, or was cancelled — and serialized by
// AppendCheckpoint/RestoreEstimatorState. It is not safe for concurrent
// use; the public betweenness.Estimator provides the locking front door.
type EstimatorState struct {
	w       Workload
	cfg     Config // defaults applied; Eps/Delta track Recalibrate
	threads int    // 0 = sequential engine
	vd      int
	omega   float64

	// streams are the per-thread RNG streams (one, sequentially); samplers
	// wrap them, so checkpointing the stream states at a quiescent point
	// captures the samplers exactly.
	streams  []*rng.Rand
	samplers []Sampler

	s          *epoch.StateFrame // accumulated consistent state
	cal        *Calibration
	calibrated bool
	nextCheck  int64 // sequential engine: tau of the next scheduled stopping check
	epochs     int
	converged  bool
	// lower and upper are the scratch confidence bounds of the top-k
	// stopping rule, allocated on its first check.
	lower, upper []float64

	timings     Timings
	clock       time.Duration // cumulative active sampling wall-clock
	activeSince time.Time     // non-zero while Run executes
	clockTau    int64         // tau already present when the clock started (restored sessions)

	// ckptReq arms a one-shot in-run checkpoint capture (RequestCheckpoint,
	// callable from any goroutine); the engines service it at the next
	// consistent epoch boundary on the coordinating goroutine.
	ckptReq      atomic.Bool
	onCheckpoint func(payload []byte)
}

// NewEstimatorState validates the workload, runs the diameter phase once
// (honouring cfg.VertexDiameter), derives omega, and sets up the RNG
// streams and samplers. threads == 0 selects the sequential engine,
// threads >= 1 the epoch-based shared-memory engine. cfg.TopK > 0 selects
// the certified top-k stopping rule and must be below the vertex count.
func NewEstimatorState(w Workload, threads int, cfg Config) (*EstimatorState, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if threads < 0 {
		return nil, fmt.Errorf("kadabra: estimator threads must be >= 0, got %d", threads)
	}
	if err := checkTopK(cfg.TopK, w.n); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	st := &EstimatorState{w: w, cfg: cfg, threads: threads}
	st.vd, st.timings.Diameter = w.ResolveDiameter(cfg)
	st.omega = Omega(st.vd, cfg.Eps, cfg.Delta)
	if threads == 0 {
		st.streams = []*rng.Rand{rng.NewRand(cfg.Seed)}
	} else {
		master := rng.NewRand(cfg.Seed)
		st.streams = make([]*rng.Rand, threads)
		for i := range st.streams {
			st.streams[i] = master.Split()
		}
	}
	st.buildSamplers()
	st.s = epoch.NewStateFrame(w.n)
	if cfg.DenseFrames {
		st.s.ForceDense()
	}
	return st, nil
}

func (st *EstimatorState) buildSamplers() {
	st.samplers = make([]Sampler, len(st.streams))
	for i, r := range st.streams {
		st.samplers[i] = st.w.NewSampler(r)
	}
}

// Threads returns the engine's sampling-thread count (0 = sequential).
func (st *EstimatorState) Threads() int { return st.threads }

// Tau returns the consistent sample count accumulated so far.
func (st *EstimatorState) Tau() int64 { return st.s.Tau }

// Epochs returns the number of completed epochs (stopping checks).
func (st *EstimatorState) Epochs() int { return st.epochs }

// Omega returns the static maximal sample count for the current targets.
func (st *EstimatorState) Omega() float64 { return st.omega }

// VertexDiameter returns the cached phase-1 bound.
func (st *EstimatorState) VertexDiameter() int { return st.vd }

// Calibrated reports whether phase 2 has completed.
func (st *EstimatorState) Calibrated() bool { return st.calibrated }

// Converged reports whether the adaptive stopping rule is satisfied for the
// current targets; Recalibrate resets it.
func (st *EstimatorState) Converged() bool { return st.converged }

// Config returns the effective configuration (Eps/Delta track Recalibrate).
func (st *EstimatorState) Config() Config { return st.cfg }

// SetOnEpoch replaces the per-epoch progress hook (used after a restore,
// which cannot serialize functions). Call only between Runs.
func (st *EstimatorState) SetOnEpoch(fn func(Progress)) { st.cfg.OnEpoch = fn }

// SetOnCheckpoint registers the sink for in-run checkpoint captures (see
// RequestCheckpoint). The sink runs on the engine's coordinating goroutine
// at an epoch boundary, so a Run in flight pauses for its duration: hand
// the payload off (say, an atomic file write) rather than block in it.
// Call only between Runs.
func (st *EstimatorState) SetOnCheckpoint(fn func(payload []byte)) { st.onCheckpoint = fn }

// RequestCheckpoint arms a one-shot capture of the session's resumable
// state during an active Run: at the next consistent epoch boundary the
// engine serializes a checkpoint payload and hands it to the SetOnCheckpoint
// sink. Safe to call from any goroutine, including concurrently with Run —
// this is how a caller that serializes Run behind a mutex (the public
// Estimator, the daemon's periodic checkpointer) captures in-flight work
// without blocking on that mutex. A request made while no Run is active
// stays armed and is serviced by the next Run's first boundary.
//
// On the sequential engine the payload is the exact AppendCheckpoint state
// (bit-identical resume). On the shared-memory engine the worker threads'
// RNG streams are in concurrent use at a boundary, so the payload is
// synthesized like a distributed checkpoint — consistent counts, tau, and
// calibration with a fresh RNG stream — and restores onto the sequential
// engine (statistically equivalent; see AppendDistCheckpoint).
func (st *EstimatorState) RequestCheckpoint() { st.ckptReq.Store(true) }

// serviceCheckpoint fulfils an armed checkpoint request. Called by the
// engines on the coordinating goroutine at epoch boundaries, where the
// accumulated state frame is consistent.
func (st *EstimatorState) serviceCheckpoint() {
	if st.onCheckpoint == nil || !st.ckptReq.CompareAndSwap(true, false) {
		return
	}
	if st.threads == 0 {
		st.onCheckpoint(st.AppendCheckpoint(nil))
		return
	}
	// Shared-memory engine: the workers own their streams mid-run, so
	// serialize the coordinator-owned consistent state only. st.cal is
	// always set here — phase 3 (the only place boundaries occur) requires
	// calibration.
	st.onCheckpoint(AppendDistCheckpoint(nil, st.cfg, st.vd, st.w.n, st.s.C, st.s.Tau, st.cal, st.epochs))
}

// AchievedEps returns the anytime guarantee currently held: 1 (vacuous)
// before calibration, the O(n) bound sweep of Calibration.AchievedEps
// afterwards.
func (st *EstimatorState) AchievedEps() float64 {
	if !st.calibrated || st.s.Tau <= 0 {
		return 1
	}
	return st.cal.AchievedEps(st.s.C, st.s.Tau)
}

// Estimates materializes btilde from the current state (all zeros before
// any sampling).
func (st *EstimatorState) Estimates() []float64 {
	bt := make([]float64, len(st.s.C))
	if st.s.Tau > 0 {
		ft := float64(st.s.Tau)
		for v, c := range st.s.C {
			bt[v] = float64(c) / ft
		}
	}
	return bt
}

// Progress returns a consistent progress observation of the current state.
// It pays the O(n) achieved-eps sweep.
func (st *EstimatorState) Progress() Progress {
	p := Progress{Epoch: st.epochs, Tau: st.s.Tau, AchievedEps: st.AchievedEps()}
	// The throughput covers what this process actually sampled: a restored
	// session's inherited tau does not count against its fresh clock.
	if el := st.activeClock(); el > 0 && st.s.Tau > st.clockTau {
		p.SamplesPerSec = float64(st.s.Tau-st.clockTau) / el.Seconds()
	}
	return p
}

func (st *EstimatorState) activeClock() time.Duration {
	d := st.clock
	if !st.activeSince.IsZero() {
		d += time.Since(st.activeSince)
	}
	return d
}

func (st *EstimatorState) fireProgress() {
	if st.cfg.OnEpoch != nil {
		st.cfg.OnEpoch(st.Progress())
	}
}

// Result materializes the unified result from the current state. Under the
// top-k rule it also carries the confidence bounds and the separation
// verdict, re-derived from the counts so they are exact at any tau (a
// budget can stop a run between two scheduled checks).
func (st *EstimatorState) Result() *Result {
	res := &Result{
		Betweenness:    st.Estimates(),
		Tau:            st.s.Tau,
		Omega:          st.omega,
		VertexDiameter: st.vd,
		Epochs:         st.epochs,
		AchievedEps:    st.AchievedEps(),
		Converged:      st.converged,
		Timings:        st.timings,
	}
	if k := st.cfg.TopK; k > 0 && st.calibrated {
		res.Lower = make([]float64, st.w.n)
		res.Upper = make([]float64, st.w.n)
		_, res.Separated = st.cal.TopKHaveToStop(st.s.C, st.s.Tau, k, res.Lower, res.Upper)
	}
	return res
}

// haveToStop evaluates the session's stopping rule on the consistent
// state: the certified top-k rule when Config.TopK is set, the uniform
// (eps, delta) rule otherwise. Both engines call it where the paper's
// Algorithm 2 has its black-box stopping check. Requires calibration.
func (st *EstimatorState) haveToStop() bool {
	k := st.cfg.TopK
	if k == 0 {
		return st.cal.HaveToStop(st.s.C, st.s.Tau)
	}
	if st.lower == nil {
		st.lower = make([]float64, st.w.n)
		st.upper = make([]float64, st.w.n)
	}
	stop, _ := st.cal.TopKHaveToStop(st.s.C, st.s.Tau, k, st.lower, st.upper)
	return stop
}

// checkTopK validates a top-k target against the vertex count (0 selects
// the uniform rule).
func checkTopK(k, n int) error {
	if k < 0 || k >= n {
		return fmt.Errorf("kadabra: top-k %d out of range [0, %d)", k, n)
	}
	return nil
}

// SetTopK re-targets the stopping rule — k > 0 selects the certified top-k
// rule, 0 the uniform one — keeping every sample and the check schedule, so
// it also serves a restored session (a checkpoint does not carry k). A
// converged session is re-judged under the rule now in force — also when k
// is unchanged, since a restored session's converged flag was earned under
// whatever rule its writer ran: it stays converged when the rule holds, and
// resumes sampling on the next Run otherwise. Call only between Runs.
func (st *EstimatorState) SetTopK(k int) error {
	if err := checkTopK(k, st.w.n); err != nil {
		return err
	}
	st.cfg.TopK = k
	if st.converged {
		st.converged = st.haveToStop()
	}
	return nil
}

// Recalibrate retargets the session to a new (eps, delta) while keeping
// every accumulated sample: omega is recomputed from the cached vertex
// diameter and the per-vertex failure budgets are re-derived from the
// *current* counts — never reset — so refinement resumes from the tightest
// available state (the calibration heuristic affects only running time,
// never correctness: paper footnote 2). Call only between Runs; eps and
// delta must be in (0, 1).
func (st *EstimatorState) Recalibrate(eps, delta float64) {
	st.cfg.Eps, st.cfg.Delta = eps, delta
	st.omega = Omega(st.vd, eps, delta)
	st.converged = false
	if st.s.Tau > 0 {
		st.cal = Calibrate(st.s.C, st.s.Tau, st.omega, eps, delta)
		st.calibrated = true
		st.nextCheck = st.s.Tau
	}
}

// Run is the one run-to-completion entry point of the package: a fresh
// session over w (threads == 0: the sequential engine; threads >= 1: the
// shared-memory engine with that many sampling threads), advanced until it
// converges or the cfg.MaxSamples / cfg.MaxDuration budget runs out — the
// duration measured from entry, so it covers the diameter phase. A
// cancelled ctx returns ctx.Err() within one epoch.
func Run(ctx context.Context, w Workload, threads int, cfg Config) (*Result, error) {
	start := time.Now()
	st, err := NewEstimatorState(w, threads, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := st.Run(ctx, cfg.NewBudget(start)); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// Run advances the session until the adaptive stopping rule is satisfied
// for the current targets, the budget runs out, or ctx is cancelled. Every
// return leaves the state quiescent and consistent: on a budget stop Run
// returns nil with Converged() false, on cancellation it returns ctx.Err()
// with all completed work retained, so the caller may checkpoint, refine,
// or resume in all three cases. Calling Run after convergence returns
// immediately.
func (st *EstimatorState) Run(ctx context.Context, b Budget) error {
	if st.converged {
		return nil
	}
	st.activeSince = time.Now()
	defer func() {
		st.clock += time.Since(st.activeSince)
		st.activeSince = time.Time{}
	}()
	if st.threads == 0 {
		return st.runSeq(ctx, b)
	}
	return st.runShm(ctx, b)
}

// runSeq is the sequential engine: the plain KADABRA loop restructured
// around an absolute stopping-check schedule (checks fire at tau0 and then
// every CheckInterval samples, capped at omega) so that a budget stop at
// any tau resumes on exactly the schedule an uninterrupted run would have
// followed — the foundation of the bit-identical checkpoint guarantee.
func (st *EstimatorState) runSeq(ctx context.Context, b Budget) error {
	cfg := st.cfg
	sampler := st.samplers[0]
	S := st.s

	// Phase 2: calibration with tau0 = omega/StartFactor non-adaptive
	// samples, kept in the running state (paper §III-A).
	if !st.calibrated {
		calStart := time.Now()
		tau0 := int64(st.omega)/int64(cfg.StartFactor) + 1
		target := tau0
		if b.MaxSamples > 0 && b.MaxSamples < target {
			target = b.MaxSamples
		}
		for S.Tau < target {
			if S.Tau%calCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					st.timings.Calibration += time.Since(calStart)
					return err
				}
				if b.Overdue() {
					break
				}
			}
			SampleInto(sampler, S)
		}
		if S.Tau >= tau0 {
			st.cal = Calibrate(S.C, S.Tau, st.omega, cfg.Eps, cfg.Delta)
			st.calibrated = true
			st.nextCheck = S.Tau // first adaptive check fires immediately
		}
		st.timings.Calibration += time.Since(calStart)
		if !st.calibrated {
			return nil // budget exhausted mid-calibration; resumable
		}
	}

	// Phase 3: adaptive sampling on the absolute check schedule.
	samplingStart := time.Now()
	defer func() { st.timings.Sampling += time.Since(samplingStart) }()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if S.Tau >= st.nextCheck || float64(S.Tau) >= st.omega {
			cs := time.Now()
			stop := st.haveToStop()
			st.timings.Check += time.Since(cs)
			st.epochs++
			st.fireProgress()
			st.nextCheck = S.Tau + int64(cfg.CheckInterval)
			st.serviceCheckpoint()
			if stop {
				st.converged = true
				return nil
			}
		}
		if b.Exceeded(S.Tau) {
			return nil
		}
		target := st.nextCheck
		if b.MaxSamples > 0 && b.MaxSamples < target {
			target = b.MaxSamples
		}
		for S.Tau < target && float64(S.Tau) < st.omega {
			SampleInto(sampler, S)
			if S.Tau%calCheckEvery == 0 && b.Overdue() {
				break
			}
		}
	}
}

// runShm is the epoch-based shared-memory engine (paper Ref. 24, Alg. 2
// with the MPI calls removed): thread 0 coordinates — samples, forces epoch
// transitions, aggregates frozen frames, checks the stopping condition —
// while threads 1..T-1 sample wait-free. The thread choreography is
// epoch.Driver's; each Run starts its workers and joins them before
// returning, so between Runs the session is quiescent; samples left in
// unaggregated frames at a stop are discarded, which is statistically
// neutral (they are dropped independently of their values).
func (st *EstimatorState) runShm(ctx context.Context, b Budget) error {
	cfg := st.cfg
	T := st.threads
	S := st.s

	fw := epoch.New(T, st.w.n)
	if cfg.DenseFrames {
		fw.ForceDense()
	}
	sample := make([]func(*epoch.StateFrame), T)
	for t := range sample {
		s := st.samplers[t]
		sample[t] = func(sf *epoch.StateFrame) { SampleInto(s, sf) }
	}
	drv := epoch.NewDriver(fw, sample)

	// Phase 2: pleasingly parallel calibration toward tau0.
	if !st.calibrated {
		calStart := time.Now()
		tau0 := int64(st.omega)/int64(cfg.StartFactor) + 1
		target := tau0
		if b.MaxSamples > 0 && b.MaxSamples < target {
			target = b.MaxSamples
		}
		if remaining := target - S.Tau; remaining > 0 {
			stop := func() bool { return ctx.Err() != nil || b.Overdue() }
			drv.Batch(int(remaining)/T+1, stop, S)
		}
		if err := ctx.Err(); err != nil {
			st.timings.Calibration += time.Since(calStart)
			return err
		}
		if S.Tau >= tau0 {
			st.cal = Calibrate(S.C, S.Tau, st.omega, cfg.Eps, cfg.Delta)
			st.calibrated = true
		}
		st.timings.Calibration += time.Since(calStart)
		if !st.calibrated {
			return nil // budget exhausted mid-calibration; resumable
		}
	}

	// Phase 3: epoch-based adaptive sampling.
	samplingStart := time.Now()
	drv.Start()
	n0 := cfg.EpochLength(T)
	var transTime, checkTime time.Duration
	var runErr error
	for {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// Stopping check on the consistent state: covers both the
		// calibration-alone-suffices degenerate case and the post-epoch
		// check of the previous iteration's aggregation.
		cs := time.Now()
		stop := st.haveToStop()
		checkTime += time.Since(cs)
		if stop {
			st.converged = true
			break
		}
		if b.Exceeded(S.Tau) {
			break
		}
		// The budget is re-checked per epoch, so a budget stop overshoots
		// by at most one epoch's samples; cap the coordinator's share by
		// the remaining allowance so small budgets stay small (worker
		// threads keep sampling until the transition either way — their
		// overshoot scales with the epoch's wall time).
		n0e := n0
		if b.MaxSamples > 0 {
			if rem := b.MaxSamples - S.Tau; rem < int64(n0e) {
				n0e = int(rem)
			}
		}
		transTime += drv.Epoch(n0e, S)
		st.epochs++
		st.fireProgress()
		st.serviceCheckpoint()
	}
	drv.Stop()
	st.timings.Sampling += time.Since(samplingStart)
	st.timings.Transition += transTime
	st.timings.Check += checkTime
	return runErr
}

// --- checkpoint codec -------------------------------------------------------

// checkpointVersion is the payload format version; bump on layout change.
// RestoreEstimatorState rejects any other version, so a process running an
// older layout fails loudly instead of misreading state.
const checkpointVersion = 1

// Bounds on deserialized structural fields, keeping corrupt checkpoints
// from driving huge allocations or degenerate configurations.
const (
	maxCheckpointThreads = 1 << 14
	maxStartFactor       = 1 << 20
	maxCheckInterval     = 1 << 30
)

// AppendCheckpoint appends a versioned serialization of the session's
// resumable state — configuration, vertex diameter, per-vertex counts, RNG
// streams, calibration budgets, and the stopping schedule — to dst. The
// graph itself is NOT serialized; RestoreEstimatorState re-binds the state
// to a caller-supplied workload over the same graph. Call only between
// Runs (the state must be quiescent). Timings and the progress hook are
// not serialized: a restored session restarts its clocks and is given its
// hook via SetOnEpoch.
func (st *EstimatorState) AppendCheckpoint(dst []byte) []byte {
	cfg := st.cfg
	dst = binary.LittleEndian.AppendUint16(dst, checkpointVersion)
	engine := byte(engineSequential)
	if st.threads > 0 {
		engine = engineSharedMemory
	}
	dst = append(dst, engine)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.threads))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Eps))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Delta))
	dst = binary.LittleEndian.AppendUint64(dst, cfg.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.StartFactor))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.CheckInterval))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochBase))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochSkew))
	var dense byte
	if cfg.DenseFrames {
		dense = 1
	}
	dst = append(dst, dense)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.vd))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.w.n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.nextCheck))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.epochs))
	var calibrated, converged byte
	if st.calibrated {
		calibrated = 1
	}
	if st.converged {
		converged = 1
	}
	dst = append(dst, calibrated, converged)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.streams)))
	for _, r := range st.streams {
		s := r.State()
		for _, word := range s {
			dst = binary.LittleEndian.AppendUint64(dst, word)
		}
	}
	dst = epoch.AppendFrame(dst, st.s)
	if st.calibrated {
		for _, d := range st.cal.DeltaL {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
		}
		for _, d := range st.cal.DeltaU {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
		}
	}
	return dst
}

// AppendDistCheckpoint appends a checkpoint payload (same layout and
// version as EstimatorState.AppendCheckpoint) synthesized from the global
// state of a distributed run: the folded per-vertex counts, the total
// sample count tau, and the calibration budgets held at world rank 0. The
// payload restores onto a sequential-engine session via
// RestoreEstimatorState, so a job whose coordinator died can resume
// single-process (or be re-distributed by re-running calibration-free).
//
// Two fields cannot be carried over exactly and are re-synthesized:
// the RNG stream (a distributed run has one stream per rank; the restored
// session gets a fresh stream derived from cfg.Seed and tau, which is
// statistically equivalent — the guarantee never depends on which samples
// are drawn, only on how many) and the stopping schedule (nextCheck is set
// to tau, so the restored session re-checks convergence immediately).
func AppendDistCheckpoint(dst []byte, cfg Config, vd, n int, counts []int64, tau int64, cal *Calibration, epochs int) []byte {
	cfg = cfg.withDefaults()
	dst = binary.LittleEndian.AppendUint16(dst, checkpointVersion)
	dst = append(dst, byte(engineSequential))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // threads
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Eps))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Delta))
	dst = binary.LittleEndian.AppendUint64(dst, cfg.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.StartFactor))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.CheckInterval))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochBase))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochSkew))
	var dense byte
	if cfg.DenseFrames {
		dense = 1
	}
	dst = append(dst, dense)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(vd))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tau)) // nextCheck
	dst = binary.LittleEndian.AppendUint32(dst, uint32(epochs))
	dst = append(dst, 1, 0) // calibrated, not converged
	dst = binary.LittleEndian.AppendUint32(dst, 1)
	stream := rng.NewRand(rng.NewSplitMix64(cfg.Seed ^ 0xD15C ^ uint64(tau)).Next())
	for _, word := range stream.State() {
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	sf := epoch.NewStateFrame(n)
	if cfg.DenseFrames {
		sf.ForceDense()
	}
	for v, c := range counts {
		if c != 0 {
			sf.AddCount(uint32(v), c)
		}
	}
	sf.Tau = tau
	dst = epoch.AppendFrame(dst, sf)
	for _, d := range cal.DeltaL {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
	}
	for _, d := range cal.DeltaU {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
	}
	return dst
}

// ckptReader is a bounds-checked cursor over an untrusted checkpoint
// payload: every read past the end sets err and returns zero, so parsing
// code stays linear and the final err check catches truncation.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("kadabra: truncated checkpoint (wanted %d more bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckptReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }

// unitInterval validates a deserialized probability-like field.
func unitInterval(name string, v float64) error {
	if math.IsNaN(v) || v <= 0 || v >= 1 {
		return fmt.Errorf("kadabra: checkpoint %s %g outside (0, 1)", name, v)
	}
	return nil
}

// RestoreEstimatorState reconstructs a session from an AppendCheckpoint
// payload, re-binding it to w, which must be a workload over the same graph
// the checkpoint was taken from (the vector length is verified; the caller
// vouches for the graph itself — a different graph of equal size yields
// estimates without a guarantee). The payload is untrusted: truncated,
// corrupted, or version-skewed bytes return an error, never panic.
func RestoreEstimatorState(payload []byte, w Workload) (*EstimatorState, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &ckptReader{b: payload}
	if v := r.u16(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("kadabra: unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	engine := r.u8()
	threads := int(r.u32())
	var cfg Config
	cfg.Eps = r.f64()
	cfg.Delta = r.f64()
	cfg.Seed = r.u64()
	cfg.StartFactor = int(r.u32())
	cfg.CheckInterval = int(r.u32())
	cfg.EpochBase = r.f64()
	cfg.EpochSkew = r.f64()
	cfg.DenseFrames = r.u8() != 0
	vd := int(r.u32())
	n := int(r.u32())
	nextCheck := int64(r.u64())
	epochs := int(r.u32())
	calibrated := r.u8() != 0
	converged := r.u8() != 0
	nstreams := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}

	switch engine {
	case engineSequential:
		if threads != 0 {
			return nil, fmt.Errorf("kadabra: sequential checkpoint with %d threads", threads)
		}
	case engineSharedMemory:
		if threads < 1 || threads > maxCheckpointThreads {
			return nil, fmt.Errorf("kadabra: checkpoint thread count %d out of range [1, %d]", threads, maxCheckpointThreads)
		}
	default:
		return nil, fmt.Errorf("kadabra: unknown checkpoint engine %d", engine)
	}
	if err := unitInterval("eps", cfg.Eps); err != nil {
		return nil, err
	}
	if err := unitInterval("delta", cfg.Delta); err != nil {
		return nil, err
	}
	if cfg.StartFactor < 1 || cfg.StartFactor > maxStartFactor {
		return nil, fmt.Errorf("kadabra: checkpoint start factor %d out of range", cfg.StartFactor)
	}
	if cfg.CheckInterval < 1 || cfg.CheckInterval > maxCheckInterval {
		return nil, fmt.Errorf("kadabra: checkpoint check interval %d out of range", cfg.CheckInterval)
	}
	if !(cfg.EpochBase > 0) || cfg.EpochBase > 1e12 {
		return nil, fmt.Errorf("kadabra: checkpoint epoch base %g out of range", cfg.EpochBase)
	}
	if math.IsNaN(cfg.EpochSkew) || cfg.EpochSkew < 0 || cfg.EpochSkew > 4 {
		return nil, fmt.Errorf("kadabra: checkpoint epoch skew %g out of range", cfg.EpochSkew)
	}
	if vd < 1 || vd > math.MaxInt32 {
		return nil, fmt.Errorf("kadabra: checkpoint vertex diameter %d out of range", vd)
	}
	if n != w.N() {
		return nil, fmt.Errorf("kadabra: checkpoint is over %d vertices, workload has %d", n, w.N())
	}
	if nextCheck < 0 {
		return nil, fmt.Errorf("kadabra: negative checkpoint check schedule %d", nextCheck)
	}
	if converged && !calibrated {
		return nil, fmt.Errorf("kadabra: checkpoint is converged but not calibrated")
	}
	wantStreams := threads
	if engine == engineSequential {
		wantStreams = 1
	}
	if nstreams != wantStreams {
		return nil, fmt.Errorf("kadabra: checkpoint has %d RNG streams, engine needs %d", nstreams, wantStreams)
	}

	streams := make([]*rng.Rand, nstreams)
	for i := range streams {
		var s [4]uint64
		for j := range s {
			s[j] = r.u64()
		}
		if r.err != nil {
			return nil, r.err
		}
		stream, err := rng.FromState(s)
		if err != nil {
			return nil, fmt.Errorf("kadabra: checkpoint stream %d: %w", i, err)
		}
		streams[i] = stream
	}

	frame, rest, err := epoch.ParseFrame(r.b, n, cfg.DenseFrames)
	if err != nil {
		return nil, err
	}
	r.b = rest

	st := &EstimatorState{
		w:          w,
		cfg:        cfg,
		threads:    threads,
		vd:         vd,
		omega:      Omega(vd, cfg.Eps, cfg.Delta),
		streams:    streams,
		s:          frame,
		calibrated: calibrated,
		nextCheck:  nextCheck,
		epochs:     epochs,
		converged:  converged,
		clockTau:   frame.Tau,
	}
	st.buildSamplers()

	if calibrated {
		cal := &Calibration{
			DeltaL: make([]float64, n),
			DeltaU: make([]float64, n),
			Omega:  st.omega,
			Eps:    cfg.Eps,
		}
		for v := 0; v < n; v++ {
			cal.DeltaL[v] = r.f64()
		}
		for v := 0; v < n; v++ {
			cal.DeltaU[v] = r.f64()
		}
		if r.err != nil {
			return nil, r.err
		}
		for v := 0; v < n; v++ {
			if err := unitInterval("deltaL", cal.DeltaL[v]); err != nil {
				return nil, err
			}
			if err := unitInterval("deltaU", cal.DeltaU[v]); err != nil {
				return nil, err
			}
		}
		// The sweep order and cached logs are derived, not serialized;
		// natural order only affects how fast a failing state is
		// recognized, never the stopping decision.
		cal.deriveCheckState(nil)
		st.cal = cal
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("kadabra: %d trailing bytes after checkpoint", len(r.b))
	}
	return st, nil
}

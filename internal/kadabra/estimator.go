package kadabra

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/epoch"
	"repro/internal/rng"
)

// This file is the anytime core of every KADABRA session: an epoch-stepped
// state machine that owns the resumable sampling state — the accumulated
// state frame, the per-thread RNG streams, the calibration, and the
// stopping schedule — and exposes it in pieces the run-to-completion
// functions never could: runs under a Budget (stop early, stay consistent),
// Recalibrate (tighten eps while keeping every sample), and a versioned
// checkpoint codec (resume in a fresh process). The stopping rule is the
// one thing a session chooses: the uniform (eps, delta) rule by default,
// the certified top-k rule when Config.TopK is set (see haveToStop).
//
// One engine advances it: core.Algorithm2, the paper's Algorithm 2, on a
// one-rank in-process world for the single-process states and on a world
// of ranks for the states NewRankState builds. Every rank's state owns that
// rank's samplers and streams, world rank 0's also the counts, the
// calibration and the stopping rule. Every state keeps one absolute check
// schedule (CheckDue, EpochQuota): a check at the calibration batch, then
// one epoch length n0 of thread 0's samples after each check, and one at
// the first tau >= omega. At one thread on one rank that is KADABRA's
// sequential loop, deterministic and bit-exactly resumable; with more
// threads or ranks it is the epoch schedule of the paper's Ref. 24, where
// the other workers sample alongside thread 0.
//
// The engine byte of a checkpoint names the session's shape. Payloads
// written before the one-thread state replaced the sequential schedule may
// carry engineSequential with zero threads: they restore as the one-thread
// state.
const (
	engineSequential   = 0
	engineSharedMemory = 1
	engineDistributed  = 2
)

// EstimatorState is the resumable core of a KADABRA estimation session over
// one workload. It is created by NewEstimatorState or NewRankState (which
// validate the workload and resolve the vertex diameter once), advanced by
// core.Algorithm2 — every return leaves the state quiescent and consistent,
// whether the run converged, exhausted its budget, or was cancelled — and
// serialized by AppendCheckpoint/RestoreEstimatorState. It
// is not safe for concurrent use; betweenness.Estimator is the locking
// front door.
type EstimatorState struct {
	w       Workload
	cfg     Config // defaults applied; Eps/Delta track Recalibrate
	threads int    // sampling threads of this process, at least 1
	// procs > 0 marks rank `rank` of a procs-rank distributed session.
	procs, rank int
	vd          int
	omega       float64

	// streams are the per-thread RNG streams; samplers wrap them, so
	// checkpointing the stream states at a quiescent point captures the
	// samplers exactly.
	streams  []*rng.Rand
	samplers []Sampler

	s            *epoch.StateFrame // accumulated consistent state
	cal          *Calibration
	calibrated   bool
	nextCheck    int64 // tau of the next scheduled stopping check
	epochs       int
	converged    bool
	ruleRecorded bool // false only when restored from a version-1 payload
	// lower and upper are the scratch confidence bounds of the top-k
	// stopping rule, allocated on its first check.
	lower, upper []float64

	timings     Timings
	clock       time.Duration // cumulative active sampling wall-clock
	activeSince time.Time     // non-zero while a run executes
	clockTau    int64         // tau already present when the clock started (restored sessions)

	onCheckpoint func(payload []byte) // the in-run capture sink (SetOnCheckpoint)
}

// NewEstimatorState validates the workload, runs the diameter phase once
// (honouring cfg.VertexDiameter), derives omega, and sets up the RNG
// streams and samplers of a single-process session on threads sampling
// threads, which core.Algorithm2 advances on a one-rank world. Thread 0
// draws from the stream seeded by cfg.Seed, the others from streams split
// off it, so one thread is KADABRA's sequential run under that seed.
// cfg.TopK > 0 selects the certified top-k stopping rule and must be below
// the vertex count.
func NewEstimatorState(w Workload, threads int, cfg Config) (*EstimatorState, error) {
	if threads < 1 {
		return nil, fmt.Errorf("kadabra: estimator threads must be >= 1, got %d", threads)
	}
	return newState(w, 0, 0, threads, cfg)
}

// NewRankState builds rank's state in a distributed session of procs ranks
// with threads sampling threads each. World rank 0 runs the diameter phase
// here, as NewEstimatorState does; the other ranks learn the bound and the
// targets from rank 0 at the start of every collective run (Sync).
func NewRankState(w Workload, rank, procs, threads int, cfg Config) (*EstimatorState, error) {
	if rank < 0 || rank >= procs || threads < 1 {
		return nil, fmt.Errorf("kadabra: rank %d of %d processes with %d threads out of range", rank, procs, threads)
	}
	return newState(w, rank, procs, threads, cfg)
}

func newState(w Workload, rank, procs, threads int, cfg Config) (*EstimatorState, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := checkTopK(cfg.TopK, w.n); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	st := &EstimatorState{w: w, cfg: cfg, threads: threads, procs: procs, rank: rank, ruleRecorded: true}
	if rank == 0 {
		st.vd, st.timings.Diameter = w.ResolveDiameter(cfg)
		st.omega = Omega(st.vd, cfg.Eps, cfg.Delta)
	}
	if procs > 0 {
		st.rekey(0)
	} else {
		st.streams = []*rng.Rand{rng.NewRand(cfg.Seed)}
		for len(st.streams) < threads {
			st.streams = append(st.streams, st.streams[0].Split())
		}
	}
	st.buildSamplers()
	st.s = epoch.NewStateFrame(st.w.n)
	return st, nil
}

// rekey (re)derives this process's worker streams from (seed, tau, global
// worker index): SplitMix64 keyed by the seed — mixed with tau once the
// session holds samples — advanced to this rank's first worker; tau == 0
// is a fresh distributed session's derivation. It serves whenever the
// streams that drew the session's samples are not at hand: a restored
// capture whose streams were in use, and every collective run after a
// session's first (Sync), where the grown tau keeps the ranks from
// replaying, and double counting, the paths they drew before. The guarantee
// depends on how many samples are drawn, never on which, so this is
// statistically equivalent to continuing the original streams.
func (st *EstimatorState) rekey(tau int64) {
	key := st.cfg.Seed
	if tau > 0 {
		key ^= 0xD15C ^ uint64(tau)
	}
	sm := rng.NewSplitMix64(key)
	for i := 0; i < st.rank*st.threads; i++ {
		sm.Next()
	}
	if st.streams == nil {
		st.streams = make([]*rng.Rand, st.threads)
		for i := range st.streams {
			st.streams[i] = new(rng.Rand)
		}
	}
	for _, r := range st.streams {
		*r = *rng.NewRand(sm.Next()) // in place: the samplers hold r
	}
}

func (st *EstimatorState) buildSamplers() {
	st.samplers = make([]Sampler, len(st.streams))
	for i, r := range st.streams {
		st.samplers[i] = st.w.NewSampler(r)
	}
}

// NewDriver builds the epoch framework and thread choreography over this
// process's samplers — one per run, so between runs no goroutine exists.
func (st *EstimatorState) NewDriver() *epoch.Driver {
	fw := epoch.New(len(st.samplers), st.w.n)
	sample := make([]func(*epoch.StateFrame), len(st.samplers))
	for t := range sample {
		s := st.samplers[t]
		sample[t] = func(sf *epoch.StateFrame) { SampleInto(s, sf) }
	}
	return epoch.NewDriver(fw, sample)
}

// Threads returns the state's sampling-thread count.
func (st *EstimatorState) Threads() int { return st.threads }

// Procs returns the world size of a distributed session (0 on the
// single-process states), Rank this state's world rank in it, N the
// workload's vertex count.
func (st *EstimatorState) Procs() int { return st.procs }
func (st *EstimatorState) Rank() int  { return st.rank }
func (st *EstimatorState) N() int     { return st.w.n }

// Tau returns the consistent sample count accumulated so far.
func (st *EstimatorState) Tau() int64 { return st.s.Tau }

// VertexDiameter returns the cached phase-1 bound.
func (st *EstimatorState) VertexDiameter() int { return st.vd }

// Calibrated reports whether phase 2 has completed.
func (st *EstimatorState) Calibrated() bool { return st.calibrated }

// Converged reports whether the adaptive stopping rule is satisfied for the
// current targets; Recalibrate resets it.
func (st *EstimatorState) Converged() bool { return st.converged }

// Config returns the effective configuration (Eps/Delta track Recalibrate,
// TopK the stopping rule in force).
func (st *EstimatorState) Config() Config { return st.cfg }

// RuleRecorded is false only for a state restored from a version-1
// checkpoint, which predates the recorded stopping rule: there the restorer
// names the rule (SetTopK), as it does when it creates a session.
func (st *EstimatorState) RuleRecorded() bool { return st.ruleRecorded }

// Timings is the session's cumulative per-phase wall clock; the engine
// advancing the state adds to it.
func (st *EstimatorState) Timings() *Timings { return &st.timings }

// SetOnEpoch replaces the per-epoch progress hook (used after a restore,
// which cannot serialize functions). Call only between runs.
func (st *EstimatorState) SetOnEpoch(fn func(Progress)) { st.cfg.OnEpoch = fn }

// SetOnCheckpoint registers the sink for in-run checkpoint captures: the
// payloads (AppendCheckpoint) that world rank 0 of core.Algorithm2 takes
// on its capture interval and ships to every rank on the termination
// broadcast. The sink runs on the engine's coordinating goroutine at an
// epoch boundary, so a run in flight pauses for its duration: hand the
// payload off (say, an atomic file write) rather than block in it. Call
// only between runs.
func (st *EstimatorState) SetOnCheckpoint(fn func(payload []byte)) { st.onCheckpoint = fn }

// DeliverCheckpoint hands a captured payload to the sink, if one is set.
func (st *EstimatorState) DeliverCheckpoint(payload []byte) {
	if st.onCheckpoint != nil && len(payload) > 0 {
		st.onCheckpoint(payload)
	}
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

// Activate starts the session's active clock for one run; the returned
// function stops it. The clock feeds Progress.SamplesPerSec, and tells the
// checkpoint codec that the worker streams are in use.
func (st *EstimatorState) Activate() (done func()) {
	st.activeSince = time.Now()
	return func() {
		st.clock += time.Since(st.activeSince)
		st.activeSince = time.Time{}
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
// (eps, delta) rule otherwise. Requires calibration.
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

// CheckDue reports whether the stopping rule is to be evaluated at the
// current tau. The schedule is absolute — at tau0, then n0 samples after
// each check, and at the first tau >= omega — so a run stopped at any tau
// resumes on exactly the checks an uninterrupted run makes. Once the other
// threads and ranks sample alongside thread 0, every epoch's fold reaches
// the next check, so a check follows every epoch.
func (st *EstimatorState) CheckDue() bool {
	return st.s.Tau >= st.nextCheck || float64(st.s.Tau) >= st.omega
}

// Check is the black-box stopping check of the paper's Algorithm 2, made on
// the consistent state when CheckDue: it evaluates the rule (timed into
// Timings.Check), latches convergence, schedules the next check n0 samples
// on, and closes an epoch. Requires calibration.
func (st *EstimatorState) Check(n0 int) bool {
	cs := time.Now()
	st.converged = st.haveToStop()
	st.timings.Check += time.Since(cs)
	st.nextCheck = st.s.Tau + int64(n0)
	st.epochs++
	if st.cfg.OnEpoch != nil {
		st.cfg.OnEpoch(st.Progress())
	}
	return st.converged
}

// EpochQuota is thread 0's sample count for the next epoch of a run whose
// epoch length is n0. At rank 0, where the counts live, thread 0 samples up
// to the next scheduled check, which omega caps, since the rule stops
// unconditionally there, and so does the sample cap of b: small budgets
// stay small, a one-thread budget stop lands on the cap exactly, and
// elsewhere only the other threads' share of one epoch overshoots it. The
// other ranks take n0.
func (st *EstimatorState) EpochQuota(n0 int, b Budget) int {
	if st.rank != 0 {
		return n0
	}
	end := min(st.nextCheck, int64(math.Ceil(st.omega)))
	if b.MaxSamples > 0 {
		end = min(end, b.MaxSamples)
	}
	return int(max(end-st.s.Tau, 0))
}

// tau0 is the calibration batch: omega/StartFactor non-adaptive samples
// (paper §III-A).
func (st *EstimatorState) tau0() int64 { return int64(st.omega)/int64(st.cfg.StartFactor) + 1 }

// CalibrationShare is each of workers sampling threads' share of the
// calibration batch a session holding tau samples still lacks: phase 2
// samples toward tau0, or toward the sample cap of b when that is smaller,
// the per-thread share rounded up (one thread draws exactly what is
// missing).
func (st *EstimatorState) CalibrationShare(b Budget, tau int64, workers int) int {
	target := st.tau0()
	if b.MaxSamples > 0 {
		target = min(target, b.MaxSamples)
	}
	missing := max(target-tau, 0)
	return int((missing + int64(workers) - 1) / int64(workers))
}

// FinishCalibration is the last step of phase 2: a state holding the
// calibration batch derives its per-vertex failure budgets; a batch cut
// short by a budget or a cancellation leaves it uncalibrated and resumable.
// The phase's wall clock since start is charged either way.
func (st *EstimatorState) FinishCalibration(start time.Time) {
	if st.s.Tau >= st.tau0() {
		st.calibrate()
	}
	st.timings.Calibration += time.Since(start)
}

// calibrate derives the failure budgets from the current counts; the first
// adaptive check fires immediately after.
func (st *EstimatorState) calibrate() {
	st.cal = Calibrate(st.s.C, st.s.Tau, st.omega, st.cfg.Eps, st.cfg.Delta)
	st.calibrated = true
	st.nextCheck = st.s.Tau
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
// rule, 0 the uniform one — keeping every sample and the check schedule. A
// converged session is re-judged under the rule now in force — also when k
// is unchanged, since a version-1 payload does not say under which rule its
// converged flag was earned: it stays converged when the rule holds, and
// resumes sampling on the next run otherwise. Call only between runs.
func (st *EstimatorState) SetTopK(k int) error {
	if err := checkTopK(k, st.w.n); err != nil {
		return err
	}
	st.cfg.TopK = k
	st.ruleRecorded = true
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
// never correctness: paper footnote 2). Called at world rank 0 of a
// distributed session, the other ranks follow at the next run (Sync). Call
// only between runs; eps and delta must be in (0, 1).
func (st *EstimatorState) Recalibrate(eps, delta float64) {
	st.cfg.Eps, st.cfg.Delta = eps, delta
	st.omega = Omega(st.vd, eps, delta)
	st.converged = false
	if st.s.Tau > 0 {
		st.calibrate()
	}
}

// Announce is world rank 0's opening of a collective run — vertex diameter,
// whether phase 2 is behind it, targets, tau — which core.Algorithm2
// broadcasts and Sync reads.
func (st *EstimatorState) Announce() []int64 {
	var calibrated int64
	if st.calibrated {
		calibrated = 1
	}
	return []int64{int64(st.vd), calibrated,
		int64(math.Float64bits(st.cfg.Eps)), int64(math.Float64bits(st.cfg.Delta)), st.s.Tau}
}

// Sync aligns this rank with rank 0's Announce: the other ranks adopt the
// vertex diameter and the targets (so a Recalibrate at rank 0 reaches every
// rank), and once a distributed session holds samples every rank re-keys
// its worker streams by tau (see rekey); a single-process state keeps its
// streams running from one run to the next. It returns whether to skip
// phase 2, and tau.
func (st *EstimatorState) Sync(a []int64) (calibrated bool, tau int64) {
	if st.rank != 0 {
		st.vd = int(a[0])
		st.cfg.Eps, st.cfg.Delta = math.Float64frombits(uint64(a[2])), math.Float64frombits(uint64(a[3]))
		st.omega = Omega(st.vd, st.cfg.Eps, st.cfg.Delta)
	}
	if tau = a[4]; tau > 0 && st.procs > 0 {
		st.rekey(tau)
	}
	return a[1] != 0, tau
}

// FoldWire folds one reduced wire frame (an epoch's, a calibration batch's,
// a recovery salvage) into the accumulated state and returns the frame's
// remote-cancellation flag.
func (st *EstimatorState) FoldWire(buf []byte) (cancelled bool, err error) {
	return st.s.FoldWire(buf)
}

// --- checkpoint codec -------------------------------------------------------

// checkpointVersion is the payload format version written; bump on layout
// change. RestoreEstimatorState reads it and version 1 (no procs and top-k
// fields, streams always carried) and rejects any other, so a process
// running another layout fails loudly instead of misreading state.
const checkpointVersion = 2

// Bounds on deserialized structural fields, keeping corrupt checkpoints
// from driving huge allocations or degenerate configurations.
const (
	maxCheckpointThreads = 1 << 14 // per session: threads, or procs x threads
	maxStartFactor       = 1 << 20
)

// ownsStreams reports whether the worker RNG streams are the serializing
// goroutine's to read: always at one thread (the coordinator is the
// sampler), between runs on a multi-threaded single-process state (mid-run
// its workers draw from them), never in a distributed session (rank 0 does
// not hold its peers', and every collective run re-keys them anyway: rekey).
func (st *EstimatorState) ownsStreams() bool {
	return st.procs == 0 && (st.threads == 1 || st.activeSince.IsZero())
}

// AppendCheckpoint appends a versioned serialization of the session's
// resumable state — engine, threads, procs, stopping rule, configuration,
// vertex diameter, per-vertex counts, calibration budgets, the stopping
// schedule, and the RNG streams when the caller owns them (ownsStreams;
// otherwise marked absent, and re-derived on restore by rekey) — to dst. It
// is the one serializer: Checkpoint between runs and every in-run capture
// write it. The graph itself is NOT serialized;
// RestoreEstimatorState re-binds the state to a caller-supplied workload
// over the same graph. Call it between runs, or on the coordinating
// goroutine at an epoch boundary. Timings and the hooks are not serialized.
// A one-thread session resumes bit-identically to never having stopped; a
// capture whose streams were in use resumes on fresh ones, which is
// statistically equivalent.
func (st *EstimatorState) AppendCheckpoint(dst []byte) []byte {
	cfg := st.cfg
	dst = binary.LittleEndian.AppendUint16(dst, checkpointVersion)
	engine := byte(engineSharedMemory)
	if st.procs > 0 {
		engine = engineDistributed
	}
	dst = append(dst, engine)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.threads))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.procs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.TopK))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Eps))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Delta))
	dst = binary.LittleEndian.AppendUint64(dst, cfg.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.StartFactor))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the deleted check interval; kept so the layout stays v2
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochBase))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.EpochSkew))
	dst = append(dst, 0) // the deleted forced-dense knob; kept so the layout stays v2
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
	if st.ownsStreams() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.streams)))
		for _, r := range st.streams {
			for _, word := range r.State() {
				dst = binary.LittleEndian.AppendUint64(dst, word)
			}
		}
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, 0) // streams absent
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
// payload (this version's or version 1's), re-binding it to w, which must
// be a workload over the same graph the checkpoint was taken from (the
// vector length is verified; the caller vouches for the graph itself — a
// different graph of equal size yields estimates without a guarantee). The
// session comes back in the shape that wrote it — a single process with its
// threads (one, for a payload of the deleted sequential schedule), or world
// rank 0 of a procs x threads distributed session (the caller builds the
// other ranks with NewRankState). The payload is untrusted: truncated,
// corrupted, or version-skewed bytes return an error, never panic.
func RestoreEstimatorState(payload []byte, w Workload) (*EstimatorState, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &ckptReader{b: payload}
	version := r.u16()
	if r.err == nil && version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("kadabra: unsupported checkpoint version %d (want 1 or %d)", version, checkpointVersion)
	}
	engine := r.u8()
	threads := int(r.u32())
	var cfg Config
	var procs int
	if version >= 2 {
		procs = int(r.u32())
		cfg.TopK = int(r.u32())
	}
	cfg.Eps = r.f64()
	cfg.Delta = r.f64()
	cfg.Seed = r.u64()
	cfg.StartFactor = int(r.u32())
	r.u32() // the deleted check interval: written as 0, ignored when read
	cfg.EpochBase = r.f64()
	cfg.EpochSkew = r.f64()
	r.u8() // the deleted forced-dense knob: written as 0, ignored when read
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

	// Structural fields first: nothing below allocates from a length not
	// checked here. workers is the number of streams the payload carries
	// when it carries them.
	var workers int
	switch {
	case engine == engineSequential && threads == 0 && procs == 0:
		threads, workers = 1, 1
	case engine == engineSequential:
		return nil, fmt.Errorf("kadabra: sequential checkpoint with %d threads, %d processes", threads, procs)
	case engine != engineSharedMemory && engine != engineDistributed:
		return nil, fmt.Errorf("kadabra: unknown checkpoint engine %d", engine)
	case threads < 1 || threads > maxCheckpointThreads:
		return nil, fmt.Errorf("kadabra: checkpoint thread count %d out of range [1, %d]", threads, maxCheckpointThreads)
	case engine == engineSharedMemory && procs == 0:
		workers = threads
	case engine == engineSharedMemory || procs < 1 || procs > maxCheckpointThreads/threads:
		// (A restorer builds procs x threads samplers: bound the product.)
		return nil, fmt.Errorf("kadabra: checkpoint engine %d with process count %d out of range", engine, procs)
	}
	// Streams are all there or marked absent: a sequential payload and
	// version 1 always carry theirs, a distributed session never (workers
	// is 0).
	if absent := nstreams == 0 && version >= 2 && engine != engineSequential; nstreams != workers && !absent {
		return nil, fmt.Errorf("kadabra: checkpoint has %d RNG streams, engine needs %d", nstreams, workers)
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
	if err := checkTopK(cfg.TopK, n); err != nil {
		return nil, err
	}
	if nextCheck < 0 {
		return nil, fmt.Errorf("kadabra: negative checkpoint check schedule %d", nextCheck)
	}
	if converged && !calibrated {
		return nil, fmt.Errorf("kadabra: checkpoint is converged but not calibrated")
	}

	var streams []*rng.Rand
	if nstreams > 0 {
		streams = make([]*rng.Rand, nstreams)
	}
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

	frame, rest, err := epoch.ParseFrame(r.b, n)
	if err != nil {
		return nil, err
	}
	r.b = rest

	st := &EstimatorState{
		w:            w,
		cfg:          cfg,
		threads:      threads,
		procs:        procs,
		vd:           vd,
		omega:        Omega(vd, cfg.Eps, cfg.Delta),
		streams:      streams,
		s:            frame,
		calibrated:   calibrated,
		nextCheck:    nextCheck,
		epochs:       epochs,
		converged:    converged,
		ruleRecorded: version >= 2,
		clockTau:     frame.Tau,
	}
	if streams == nil {
		st.rekey(frame.Tau)
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
		// Budgets summing above delta/2 would void the (eps, delta)
		// guarantee: the omega fallback holds the other half.
		if total := cal.TotalBudget(); !(total <= cfg.Delta/2+budgetSlack) {
			return nil, fmt.Errorf("kadabra: checkpoint failure budgets sum to %g, above delta/2 = %g", total, cfg.Delta/2)
		}
		// The sweep order and cached logs are derived, not serialized,
		// the same way Calibrate derives them.
		cal.deriveCheckState(groupBudgets(cal.DeltaL))
		st.cal = cal
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("kadabra: %d trailing bytes after checkpoint", len(r.b))
	}
	return st, nil
}

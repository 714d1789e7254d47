package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/betweenness"
)

// Session states. A session is a state machine serialized by its own
// mutex: at most one run or refine is queued or executing at a time, which
// is also what the underlying Estimator's contract expects.
const (
	stateIdle    = "idle"    // no operation pending; Run/Refine accepted
	stateQueued  = "queued"  // operation accepted, waiting for a worker slot
	stateRunning = "running" // operation executing
)

// sessionParams is the statistical identity and budget of a session as its
// creator requested it — the JSON body of POST /sessions and the persisted
// session metadata are both this shape.
type sessionParams struct {
	Graph string  `json:"graph"`
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Threads is the sampling thread count (shm backend; 0 = one per core).
	Threads int `json:"threads,omitempty"`
	// Backend is seq | shm | dist (default seq: resumable and the fastest
	// below the shared-memory epoch overhead on small graphs).
	Backend string `json:"backend,omitempty"`
	// Procs is the in-process rank count of the dist backend.
	Procs int `json:"procs,omitempty"`
	// TopK makes the session stop by the certified top-k rule, on any
	// backend and workload (see betweenness.WithTopK). A checkpoint records
	// the rule itself; these params key the result cache, and are what a
	// session that restarts without a checkpoint is rebuilt from — so only
	// a certified session's params gain top_k. (An shm or dist session
	// persisted before those backends certified may carry top_k over a
	// uniform checkpoint; cacheResult caches no result whose rule its key
	// does not name.)
	TopK int `json:"top_k,omitempty"`
	// MaxSamples and MaxDuration are per-Run admission budgets.
	MaxSamples  int64  `json:"max_samples,omitempty"`
	MaxDuration string `json:"max_duration,omitempty"`
}

// normalize fills defaults and validates the parts the server owns (the
// statistical ranges are validated again by the betweenness options).
func (p *sessionParams) normalize() error {
	if p.Eps == 0 {
		p.Eps = 0.01
	}
	if p.Delta == 0 {
		p.Delta = 0.1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Backend == "" {
		p.Backend = "seq"
	}
	switch p.Backend {
	case "seq", "shm":
	case "dist":
		if p.Procs == 0 {
			p.Procs = 2
		}
		if p.Procs < 1 {
			return fmt.Errorf("procs must be >= 1, got %d", p.Procs)
		}
	default:
		return fmt.Errorf("unknown backend %q (want seq|shm|dist; tcp worlds cannot live inside the daemon)", p.Backend)
	}
	if p.MaxDuration != "" {
		if _, err := time.ParseDuration(p.MaxDuration); err != nil {
			return fmt.Errorf("bad max_duration: %v", err)
		}
	}
	return nil
}

// executor builds the backend the params name. Params from POST /sessions
// went through normalize; persisted ones did not, so a name this build
// does not know is an error here (loadSessions quarantines the session)
// rather than a silent run on some other engine under the stale label.
func (p sessionParams) executor() (betweenness.Executor, error) {
	switch p.Backend {
	case "seq":
		return betweenness.Sequential(), nil
	case "shm":
		return betweenness.SharedMemory(), nil
	case "dist":
		return betweenness.LocalMPI(p.Procs), nil
	default:
		return betweenness.Executor{}, fmt.Errorf("unknown backend %q", p.Backend)
	}
}

// options maps the params onto betweenness options, progress hook
// included. The progress hook is what keeps GET /sessions/{id} fresh to
// within one epoch mid-run and feeds the SSE stream; its per-epoch O(n)
// bound sweep is the cost of a live service.
func (p sessionParams) options(progress func(betweenness.Snapshot)) ([]betweenness.Option, error) {
	exec, err := p.executor()
	if err != nil {
		return nil, err
	}
	opts := []betweenness.Option{
		betweenness.WithEpsilon(p.Eps),
		betweenness.WithDelta(p.Delta),
		betweenness.WithSeed(p.Seed),
		betweenness.WithExecutor(exec),
		betweenness.WithProgress(progress),
	}
	if p.Threads > 0 {
		opts = append(opts, betweenness.WithThreads(p.Threads))
	}
	if p.TopK > 0 {
		opts = append(opts, betweenness.WithTopK(p.TopK))
	}
	if p.MaxSamples > 0 {
		opts = append(opts, betweenness.WithMaxSamples(p.MaxSamples))
	}
	if p.MaxDuration != "" {
		d, err := time.ParseDuration(p.MaxDuration)
		if err != nil {
			return nil, err
		}
		opts = append(opts, betweenness.WithMaxDuration(d))
	}
	return opts, nil
}

// session is one named estimation session: an Estimator plus the service
// state around it — the op state machine, the result of the last completed
// operation, and the SSE subscriber set.
type session struct {
	id  string
	srv *Server
	g   *graphEntry

	// cancel aborts this session's in-flight operation (DELETE mid-run);
	// runCtx is additionally cancelled server-wide by Drain.
	runCtx context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// est is replaced only by the distributed-failure recovery ladder
	// (rebuild), which runs on the op goroutine while the session is
	// formally running — everyone else reads it through estimator().
	est       *betweenness.Estimator
	params    sessionParams
	state     string
	result    *betweenness.Result
	runErr    string
	cached    bool
	converged bool
	// interrupted reports the last operation was stopped early with its
	// samples retained (cancellation, drain, or the server run watchdog);
	// interruptReason says which.
	interrupted     bool
	interruptReason string
	// stateConverged says est holds a converged state: its own last
	// completed operation converged and nothing has sampled since (see
	// sessionMeta.StateConverged).
	stateConverged bool
	// degraded, when non-empty, records that the session no longer runs
	// exactly as requested: a distributed world shrank or fell back to the
	// shared-memory backend after rank deaths, or a restart found its
	// checkpoint unusable and began again from zero samples.
	degraded string
	// saved and savedTau are what the session's record on disk holds (-1:
	// an in-run capture's tau), used to skip no-op writes at the end of an
	// operation.
	saved    sessionMeta
	savedTau int64
	subs     map[chan []byte]struct{}
}

// estimator returns the session's current estimator. The pointer is stable
// for the duration of any one operation; it changes only when the recovery
// ladder rebuilds the session between attempts.
func (s *session) estimator() *betweenness.Estimator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est
}

// metaLocked is the session's record section. Callers hold s.mu.
func (s *session) metaLocked() sessionMeta {
	return sessionMeta{ID: s.id, Params: s.params, Converged: s.converged, Cached: s.cached,
		StateConverged: s.stateConverged, Degraded: s.degraded}
}

// currentParams returns a copy of the session params.
func (s *session) currentParams() sessionParams {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// refineSpec carries a validated refine request from the handler to the
// run goroutine.
type refineSpec struct {
	opts []betweenness.Option
	// apply mutates the session params after a successful refine, so the
	// cache key and the persisted metadata track the session's current
	// statistical identity.
	apply func(*sessionParams)
}

type opKind int

const (
	opRun opKind = iota
	opRefine
)

// cacheKey is the full statistical identity of this session's next Run:
// sessions with equal keys produce bit-identical converged results.
// Callers hold s.mu.
func (s *session) cacheKeyLocked() string {
	p := s.params
	var b strings.Builder
	b.WriteString(s.g.digest)
	b.WriteByte('|')
	b.WriteString(kindString(s.g.kind))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(p.Eps, 'x', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(p.Delta, 'x', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(p.Seed, 10))
	b.WriteByte('|')
	b.WriteString(p.Backend)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(p.Threads))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(p.Procs))
	if p.TopK > 0 {
		// k selects the stopping rule (certified top-k runs stop far short
		// of the uniform eps), so it is identity.
		b.WriteString("|k")
		b.WriteString(strconv.Itoa(p.TopK))
	}
	return b.String()
}

// start accepts a run or refine if the session is idle and the server is
// not draining, and hands it to a goroutine. The per-session serialization
// lives here: one queued-or-running operation at a time.
func (s *session) start(kind opKind, spec refineSpec) error {
	s.srv.mu.Lock()
	draining := s.srv.draining
	s.srv.mu.Unlock()
	if draining {
		return errDraining
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateIdle {
		return errBusy
	}
	s.state = stateQueued
	// The outcome flags describe the state the session holds, which this
	// operation is about to change. A Run leaves a converged state as it
	// is; a refine retargets it.
	s.converged, s.cached = false, false
	if kind == opRefine {
		s.stateConverged = false
	}
	s.runErr = ""
	s.interrupted = false
	s.interruptReason = ""
	s.srv.wg.Add(1)
	go s.execute(kind, spec)
	s.broadcastLocked("state", map[string]string{"state": stateQueued})
	return nil
}

// execute is the run goroutine: cache fast path, worker-slot admission,
// the estimator call (watchdogged, with distributed-failure recovery),
// then cache/result/record/state bookkeeping.
func (s *session) execute(kind opKind, spec refineSpec) {
	defer s.srv.wg.Done()

	if kind == opRun {
		s.mu.Lock()
		key := s.cacheKeyLocked()
		s.mu.Unlock()
		if res, ok := s.srv.cache.get(key); ok {
			s.finish(res, nil, true)
			return
		}
	}

	// Admission control: a bounded pool of worker slots caps concurrent
	// sampling loops; everything else queues here (or gives up when the
	// session is cancelled while waiting).
	select {
	case s.srv.slots <- struct{}{}:
	case <-s.runCtx.Done():
		s.finish(nil, s.runCtx.Err(), false)
		return
	}
	defer func() { <-s.srv.slots }()

	s.setState(stateRunning)

	// The run watchdog: a server-side ceiling on one operation's wall
	// clock, independent of any budget the client asked for. The estimator
	// contract makes expiry safe — the accumulated samples survive and the
	// session reports interrupted, not failed.
	ctx := s.runCtx
	cancelWatchdog := func() {}
	if t := s.srv.cfg.RunTimeout; t > 0 {
		ctx, cancelWatchdog = context.WithTimeout(ctx, t)
	}

	var res *betweenness.Result
	var err error
	switch kind {
	case opRefine:
		res, err = s.estimator().Refine(ctx, spec.opts...)
		if err == nil && spec.apply != nil {
			s.mu.Lock()
			spec.apply(&s.params)
			s.mu.Unlock()
		}
	default:
		res, err = s.runRecovering(ctx)
	}
	cancelWatchdog()
	if err == nil {
		s.cacheResult(res)
	}
	s.finish(res, err, false)
}

// cacheResult admits a converged result to the cache under the session's
// key, unless the result's stopping rule is not the one the key names (see
// sessionParams.TopK).
func (s *session) cacheResult(res *betweenness.Result) {
	if res == nil || !res.Converged {
		return
	}
	s.mu.Lock()
	key, certified := s.cacheKeyLocked(), s.params.TopK > 0
	s.mu.Unlock()
	if certified == (res.Lower != nil) {
		s.srv.cache.put(key, res)
	}
}

// Recovery-ladder tuning: first retry after distRetryBase, doubling per
// attempt, at most distRetryAttempts rebuilds (enough to walk procs down
// and land on shm for typical worlds).
const (
	distRetryBase     = 250 * time.Millisecond
	distRetryAttempts = 4
)

// runRecovering executes a Run, and — for the distributed backends — walks
// the degradation ladder when the run dies of a rank death the in-run
// shrink-and-recalibrate recovery could not absorb: retry with exponential
// backoff on a world one rank smaller, and once the world is minimal,
// degrade to the shared-memory backend. Each step is recorded in the
// session's degraded note and surfaced in its status instead of a bare
// run error.
func (s *session) runRecovering(ctx context.Context) (*betweenness.Result, error) {
	res, err := s.estimator().Run(ctx)
	backoff := distRetryBase
	for attempt := 0; attempt < distRetryAttempts; attempt++ {
		if err == nil || !isDistDeath(err) || ctx.Err() != nil {
			return res, err
		}
		p, note, ok := shrinkOrDegrade(s.currentParams())
		if !ok {
			return res, err
		}
		s.noteDegraded(fmt.Sprintf("%s after %v", note, err))
		if rerr := s.rebuild(p); rerr != nil {
			return nil, fmt.Errorf("%v; rebuilding session to retry: %w", err, rerr)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		backoff *= 2
		res, err = s.estimator().Run(ctx)
	}
	return res, err
}

// isDistDeath reports whether err is a distributed-run fatality worth
// retrying on a reconfigured backend.
func isDistDeath(err error) bool {
	return betweenness.IsRankDeath(err) || errors.Is(err, betweenness.ErrCoordinatorLost)
}

// shrinkOrDegrade computes the next rung of the degradation ladder for
// params whose run just died of a rank death: shrink the world by one rank
// while more than two remain, then fall back to the shared-memory backend.
// ok is false when the params are not degradable (already single-process).
func shrinkOrDegrade(p sessionParams) (next sessionParams, note string, ok bool) {
	if p.Backend != "dist" {
		return p, "", false
	}
	if p.Procs > 2 {
		p.Procs--
		return p, fmt.Sprintf("retrying on a shrunken world of %d ranks", p.Procs), true
	}
	p.Backend, p.Procs = "shm", 0
	return p, "degraded from the distributed backend to shared-memory", true
}

// rebuild replaces the session's estimator with one built for the new
// params. It runs on the op goroutine while the session is formally
// running, so no other operation can observe the swap mid-flight. The
// ladder still restarts fresh: the failed estimator's rank-0 state holds
// every sample folded before the death, and the swap abandons them (the
// session's record is rewritten without a state) — carrying that state
// down the ladder is a ROADMAP follow-up.
func (s *session) rebuild(p sessionParams) error {
	opts, err := p.options(s.progress)
	if err != nil {
		return err
	}
	est, err := betweenness.NewEstimator(s.g.workload(), opts...)
	if err != nil {
		return err
	}
	s.srv.wireCheckpointSink(s, est)
	s.mu.Lock()
	s.params = p
	s.est = est
	s.stateConverged = false
	s.mu.Unlock()
	if err := s.srv.persistSession(s, nil); err != nil {
		s.srv.cfg.Logf("warning: persisting session %s: %v", s.id, err)
	}
	return nil
}

// noteDegraded records (and broadcasts) a degradation step.
func (s *session) noteDegraded(note string) {
	s.srv.cfg.Logf("session %s: %s", s.id, note)
	s.mu.Lock()
	s.degraded = note
	s.broadcastLocked("degraded", map[string]string{"degraded": note})
	s.mu.Unlock()
}

// setState transitions the op state and notifies subscribers.
func (s *session) setState(state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = state
	s.broadcastLocked("state", map[string]string{"state": state})
}

// finish records the outcome of an operation, persists it with the
// samples in one record write, and returns the session to idle. The write
// comes before the flip: this goroutine still owns the estimator
// exclusively (no new op can start while the session is busy), so it races
// nothing, and an unclean death any time after it loses none of this
// operation's work. A cancellation or watchdog expiry is not a failure: the
// estimator's contract keeps the state consistent and resumable, so the
// session simply reports interrupted with its samples retained.
func (s *session) finish(res *betweenness.Result, err error, fromCache bool) {
	s.mu.Lock()
	switch {
	case err == nil:
		s.result = res
		s.cached = fromCache
		s.converged = res != nil && res.Converged
		if !fromCache {
			s.stateConverged = s.converged
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.interrupted = true
		s.interruptReason = fmt.Sprintf(
			"run watchdog: exceeded the server run timeout (%s); samples retained, run again to continue",
			s.srv.cfg.RunTimeout)
	case errors.Is(err, context.Canceled):
		s.interrupted = true
		s.interruptReason = "cancelled; samples retained"
	default:
		s.runErr = err.Error()
	}
	s.mu.Unlock()
	s.srv.persistAfterOp(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = stateIdle
	s.broadcastLocked("state", map[string]string{"state": stateIdle})
	switch {
	case err == nil:
		s.broadcastLocked("result", map[string]any{
			"converged":    s.converged,
			"cached":       fromCache,
			"tau":          res.Tau,
			"achieved_eps": res.AchievedEps,
		})
	case s.interrupted:
		s.broadcastLocked("interrupted", map[string]string{"reason": s.interruptReason})
	default:
		s.broadcastLocked("error", map[string]string{"error": err.Error()})
	}
}

// progress is the WithProgress hook: it fans each per-epoch snapshot out
// to the SSE subscribers.
func (s *session) progress(snap betweenness.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.broadcastLocked("progress", snapshotJSON(snap))
}

// subscribe registers an SSE subscriber; the returned cancel must be
// called when the client goes away. Events are dropped, never blocked on:
// a slow subscriber misses epochs, not the run.
func (s *session) subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 32)
	s.mu.Lock()
	if s.subs == nil {
		s.subs = make(map[chan []byte]struct{})
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}
}

// broadcastLocked formats one SSE frame and offers it to every subscriber.
// Callers hold s.mu.
func (s *session) broadcastLocked(event string, data any) {
	if len(s.subs) == 0 {
		return
	}
	payload, err := json.Marshal(data)
	if err != nil {
		return
	}
	frame := []byte("event: " + event + "\ndata: " + string(payload) + "\n\n")
	for ch := range s.subs {
		select {
		case ch <- frame:
		default: // slow subscriber: drop, never block the sampling loop
		}
	}
}

// snapshotJSON is the wire shape of a betweenness.Snapshot (estimates
// elided — they go through the result and estimates endpoints).
func snapshotJSON(snap betweenness.Snapshot) map[string]any {
	return map[string]any{
		"epoch":           snap.Epoch,
		"tau":             snap.Tau,
		"achieved_eps":    snap.AchievedEps,
		"samples_per_sec": snap.SamplesPerSec,
	}
}

var (
	errBusy     = errors.New("session already has an operation queued or running")
	errDraining = errors.New("server is draining")
)

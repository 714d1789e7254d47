// Package server implements betweennessd, the betweenness-as-a-service
// daemon: an HTTP/JSON front end over the resumable estimation sessions of
// repro/betweenness.
//
// The service owns two kinds of named objects. Graphs are uploaded once
// (format sniffed via graph.DetectFormat, reduced to the largest
// (strongly) connected component, content-addressed by CSR digest) and
// shared immutably across sessions, with reference counting so a graph
// cannot be deleted under a live session. Sessions wrap a
// betweenness.Estimator: POST /sessions/{id}/run and /refine execute
// asynchronously — serialized per session, admitted through a bounded
// worker pool — while GET /sessions/{id} returns a live Snapshot (eps',
// tau, samples/s) at any time and GET /sessions/{id}/events streams
// per-epoch progress over SSE.
//
// Production concerns are first-class, and the durability story holds
// under unclean death, not just SIGTERM:
//
//   - With a data dir, each session is one durable record,
//     sessions/<id>.bck: its params, status and degradation note beside
//     its estimator state (store.go). Every run and refine rewrites it in
//     one write at completion, and a background loop (CheckpointInterval)
//     captures in-flight runs at consistent epoch boundaries — so a
//     SIGKILL or OOM kill loses at most one interval of sampling, and
//     Drain (wired to SIGTERM in cmd/betweennessd) remains the clean path:
//     cancel runs, checkpoint everything, exit.
//   - An LRU result cache keyed by (graph digest, workload, eps, delta,
//     seed, backend) makes repeated identical queries free. It lives in
//     memory; a restart re-seeds it, without sampling, from the records
//     of sessions whose own state converged.
//   - Startup is crash-consistent: a recovery scan sweeps interrupted
//     writes aside, rehydration CRC-verifies the records, and damage is
//     quarantined under <data>/quarantine/ (the session restarts fresh)
//     instead of keeping the daemon down.
//   - Runs are watchdogged (RunTimeout): expiry interrupts the run and
//     keeps the session resumable.
//   - Undirected uploads persist as BCSR v2 and are served by mmap: once
//     the graph file is durable, the registry entry swaps its heap CSR
//     for a mapping of the persisted bytes (graph.OpenMapped), so every
//     session on the graph — in this process lifetime and after any
//     restart — shares the kernel page cache instead of a per-daemon heap
//     copy. BCSR v2 bodies are also accepted directly on upload, which is
//     how graphconv output reaches the daemon without a text round trip.
package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/betweenness"
)

// Config configures a Server.
type Config struct {
	// DataDir is the persistence root (graphs, session records,
	// quarantined files). Empty runs the server fully in memory: usable,
	// but nothing survives a restart.
	DataDir string
	// MaxConcurrentRuns bounds the number of estimator runs sampling at
	// once — the admission-control knob. Queued operations wait for a
	// slot. Default 2.
	MaxConcurrentRuns int
	// CacheSize is the result-cache capacity in entries. Default 128;
	// negative disables caching entirely.
	CacheSize int
	// CheckpointInterval is the cadence of the periodic background
	// checkpointer: how much sampling an unclean death (SIGKILL, OOM kill,
	// power loss) can cost a running session. Default 30s; negative
	// disables the loop (completion checkpoints and Drain still write).
	CheckpointInterval time.Duration
	// RunTimeout is the server-side watchdog ceiling on one run or refine.
	// An expired operation is interrupted, not failed: the session keeps
	// its samples and resumes on the next run. 0 disables (default).
	RunTimeout time.Duration
	// MaxUploadBytes bounds one graph upload. Default 1 GiB.
	MaxUploadBytes int64
	// Logf, when set, receives one line per significant server event.
	Logf func(format string, args ...any)
}

// Server is the daemon state: registries, worker pool, cache, and the
// HTTP handler over them. Create with New, serve via Handler, stop via
// Drain.
type Server struct {
	cfg Config

	mu          sync.Mutex
	graphs      map[string]*graphEntry
	sessions    map[string]*session
	nextSession int
	draining    bool

	// runCtx is the ancestor of every session's run context; Drain
	// cancels it to stop all sampling within one epoch.
	runCtx     context.Context
	cancelRuns context.CancelFunc
	// slots is the worker-pool semaphore (capacity MaxConcurrentRuns).
	slots chan struct{}
	// wg tracks in-flight run goroutines (and the checkpoint loop) for
	// Drain.
	wg sync.WaitGroup

	// ready flips true once rehydration finishes; /readyz gates on it (and
	// on draining).
	ready atomic.Bool
	// quarantined counts files set aside by quarantine(), for /stats.
	quarantined int64

	cache *resultCache
	mux   *http.ServeMux
}

// New builds a Server and, when cfg.DataDir holds a previous instance's
// state, rehydrates it: the recovery scan quarantines files torn by an
// unclean death, graphs and sessions reload (checkpointed sessions resume
// their sampling state; a session with a damaged checkpoint is served
// fresh), and converged sessions re-seed the result cache.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentRuns <= 0 {
		cfg.MaxConcurrentRuns = 2
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	if cfg.CheckpointInterval < 0 {
		cfg.CheckpointInterval = 0
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	//bc:ctxok session runs outlive their HTTP requests by design; Drain cancels this root
	runCtx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		cfg:         cfg,
		graphs:      make(map[string]*graphEntry),
		sessions:    make(map[string]*session),
		nextSession: 1,
		runCtx:      runCtx,
		cancelRuns:  cancel,
		slots:       make(chan struct{}, cfg.MaxConcurrentRuns),
		cache:       newResultCache(cfg.CacheSize),
	}
	if cfg.DataDir != "" {
		srv.recoveryScan()
		if err := srv.loadGraphs(); err != nil {
			cancel()
			return nil, fmt.Errorf("server: rehydrating graphs: %w", err)
		}
		if err := srv.loadSessions(); err != nil {
			cancel()
			return nil, fmt.Errorf("server: rehydrating sessions: %w", err)
		}
		if n := len(srv.sessions); n > 0 || len(srv.graphs) > 0 {
			cacheEntries, _, _ := srv.cache.stats()
			cfg.Logf("rehydrated %d graph(s), %d session(s), %d cached result(s) from %s",
				len(srv.graphs), n, cacheEntries, cfg.DataDir)
		}
		if q := atomic.LoadInt64(&srv.quarantined); q > 0 {
			cfg.Logf("recovery: quarantined %d damaged file(s) under %s", q, srv.quarantineDir())
		}
	}
	srv.mux = srv.buildMux()
	srv.ready.Store(true)
	if cfg.DataDir != "" && cfg.CheckpointInterval > 0 {
		srv.wg.Add(1)
		go srv.checkpointLoop()
	}
	return srv, nil
}

// Handler returns the HTTP handler serving the daemon API.
func (srv *Server) Handler() http.Handler { return srv.mux }

// Ready reports whether the daemon should receive traffic: rehydration
// finished and no drain is in progress. /readyz serves this.
func (srv *Server) Ready() bool {
	srv.mu.Lock()
	draining := srv.draining
	srv.mu.Unlock()
	return srv.ready.Load() && !draining
}

// checkpointLoop is the periodic background checkpointer: every
// CheckpointInterval it requests an in-run capture from every running
// session. Idle sessions need nothing — every operation persists its
// session synchronously at completion (finish), so idle state is already
// durable; the loop's job is bounding what a SIGKILL can take from a run
// in flight.
func (srv *Server) checkpointLoop() {
	defer srv.wg.Done()
	ticker := time.NewTicker(srv.cfg.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			srv.checkpointPass()
		case <-srv.runCtx.Done():
			return
		}
	}
}

// checkpointPass arms one in-run capture per running session, whatever its
// backend. It never touches the estimator mutex: RequestCheckpoint is a
// flag the engine services at its next consistent epoch boundary on its own
// coordinating goroutine (world rank 0's, for a dist session), and the sink
// (writeSessionCheckpoint) persists the sealed envelope.
func (srv *Server) checkpointPass() {
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		running := s.state == stateRunning
		s.mu.Unlock()
		if running {
			s.est.RequestCheckpoint()
		}
	}
}

// sessionLive reports whether s is still the registered session for its
// id — the guard that keeps a checkpoint racing a DELETE from resurrecting
// the deleted session's files.
func (srv *Server) sessionLive(s *session) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[s.id] == s
}

// wireCheckpointSink registers the in-run capture sink on an estimator
// (without a data dir or with the loop disabled there is nothing to capture
// for).
func (srv *Server) wireCheckpointSink(s *session, est *betweenness.Estimator) {
	if srv.cfg.DataDir == "" || srv.cfg.CheckpointInterval <= 0 {
		return
	}
	est.SetCheckpointSink(func(payload []byte) {
		srv.writeSessionCheckpoint(s, payload)
	})
}

// buildSession constructs (or restores, when state is non-empty) the
// estimator behind a session. Callers register the returned session and
// take the graph reference themselves.
func (srv *Server) buildSession(id string, g *graphEntry, p sessionParams, state []byte) (*session, error) {
	s := &session{id: id, srv: srv, g: g, params: p, state: stateIdle}
	s.runCtx, s.cancel = context.WithCancel(srv.runCtx)
	opts, err := p.options(s.progress)
	if err != nil {
		return nil, err
	}
	var est *betweenness.Estimator
	if state == nil {
		est, err = betweenness.NewEstimator(g.workload(), opts...)
	} else if est, err = betweenness.RestoreEstimator(bytes.NewReader(state), g.workload(), opts...); err == nil {
		// The checkpoint brings its own backend shape and stopping rule; the
		// options add what it cannot carry.
		if exec, _ := p.executor(); est.Backend() != exec.Name() {
			// Not this session's state (a version-1 capture of a dist
			// run): refuse it rather than run under a stale label.
			err = fmt.Errorf("checkpoint holds a %s session, the session metadata names backend %q",
				est.Backend(), p.Backend)
		}
	}
	if err != nil {
		return nil, err
	}
	s.est = est
	srv.wireCheckpointSink(s, est)
	return s, nil
}

// Drain performs the graceful-shutdown sequence: refuse new operations
// (readiness drops with it), cancel every in-flight run (the estimators
// keep their accumulated samples — that is the session contract), wait for
// the run goroutines, then rewrite every session's record so a restarted
// daemon resumes instead of resampling. It returns the first write error
// but keeps going so one bad session cannot sink the others' state; ctx
// bounds the wait for in-flight runs.
func (srv *Server) Drain(ctx context.Context) error {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		return nil
	}
	srv.draining = true
	srv.mu.Unlock()
	srv.cfg.Logf("draining: cancelling in-flight runs")
	srv.cancelRuns()

	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted waiting for runs: %w", ctx.Err())
	}

	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()

	var firstErr error
	for _, s := range sessions {
		if err := srv.persistSession(s, nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: checkpointing session %s: %w", s.id, err)
		}
	}
	srv.cfg.Logf("drained: %d session(s) persisted", len(sessions))
	return firstErr
}

// allocSessionID reserves the next generated session id. Callers hold
// srv.mu.
func (srv *Server) allocSessionIDLocked() string {
	id := fmt.Sprintf("s%d", srv.nextSession)
	srv.nextSession++
	return id
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/betweenness"
)

// The HTTP surface. All responses are JSON except the SSE stream; errors
// are {"error": "..."} with a meaningful status code (400 bad input, 404
// unknown object, 409 state conflicts — busy sessions, referenced graphs,
// non-refinable backends — and 503 while draining).

func (srv *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", srv.handleHealth)
	mux.HandleFunc("GET /readyz", srv.handleReady)
	mux.HandleFunc("GET /stats", srv.handleStats)

	mux.HandleFunc("POST /graphs", srv.handleGraphUpload)
	mux.HandleFunc("GET /graphs", srv.handleGraphList)
	mux.HandleFunc("GET /graphs/{name}", srv.handleGraphGet)
	mux.HandleFunc("DELETE /graphs/{name}", srv.handleGraphDelete)

	mux.HandleFunc("POST /sessions", srv.handleSessionCreate)
	mux.HandleFunc("GET /sessions", srv.handleSessionList)
	mux.HandleFunc("GET /sessions/{id}", srv.handleSessionGet)
	mux.HandleFunc("DELETE /sessions/{id}", srv.handleSessionDelete)
	mux.HandleFunc("POST /sessions/{id}/run", srv.handleSessionRun)
	mux.HandleFunc("POST /sessions/{id}/refine", srv.handleSessionRefine)
	mux.HandleFunc("GET /sessions/{id}/result", srv.handleSessionResult)
	mux.HandleFunc("GET /sessions/{id}/estimates", srv.handleSessionEstimates)
	mux.HandleFunc("GET /sessions/{id}/events", srv.handleSessionEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleHealth is liveness: the process is up and serving. Always 200 —
// even while draining — so an orchestrator does not kill a daemon that is
// busy checkpointing its sessions.
func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 200 when the daemon should receive traffic,
// 503 while the startup recovery scan is still rehydrating state or once a
// drain has begun — so load balancers stop routing before the drain
// cancels anything.
func (srv *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !srv.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	nGraphs, nSessions, draining := len(srv.graphs), len(srv.sessions), srv.draining
	srv.mu.Unlock()
	entries, hits, misses := srv.cache.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":      nGraphs,
		"sessions":    nSessions,
		"draining":    draining,
		"active_runs": len(srv.slots),
		"run_slots":   cap(srv.slots),
		"cache": map[string]any{
			"entries": entries,
			"hits":    hits,
			"misses":  misses,
		},
		"checkpoint_interval": srv.cfg.CheckpointInterval.String(),
		"quarantined_files":   atomic.LoadInt64(&srv.quarantined),
	})
}

// graphJSON is the wire shape of a registered graph.
func graphJSON(g *graphEntry, refs int) map[string]any {
	return map[string]any{
		"name":    g.name,
		"kind":    kindString(g.kind),
		"digest":  g.digest,
		"nodes":   g.nodes,
		"edges":   g.edges,
		"reduced": g.reduced,
		"refs":    refs,
	}
}

// handleGraphUpload registers a graph: the body is the graph bytes in any
// detectable format (?kind= overrides for headerless arc lists), reduced
// to the largest (strongly) connected component and content-addressed.
// Re-uploading an identical graph under the same name is idempotent (200);
// a name collision with different content is a 409.
func (srv *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	draining := srv.draining
	srv.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	body := http.MaxBytesReader(w, r.Body, srv.cfg.MaxUploadBytes)
	g, err := buildGraphEntry(r.URL.Query().Get("name"), body, r.URL.Query().Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	srv.mu.Lock()
	if existing, ok := srv.graphs[g.name]; ok {
		refs := existing.refs
		same := existing.digest == g.digest && existing.kind == g.kind
		srv.mu.Unlock()
		if same {
			writeJSON(w, http.StatusOK, graphJSON(existing, refs))
			return
		}
		writeError(w, http.StatusConflict,
			fmt.Errorf("graph %q already registered with different content (digest %s)", g.name, existing.digest))
		return
	}
	srv.graphs[g.name] = g
	srv.mu.Unlock()

	if err := srv.persistGraph(g); err != nil {
		srv.mu.Lock()
		delete(srv.graphs, g.name)
		canClose := g.refs == 0 // a racing session create may already hold the mapping
		srv.mu.Unlock()
		if canClose {
			g.closeMapping()
		}
		writeError(w, http.StatusInternalServerError, fmt.Errorf("persisting graph: %w", err))
		return
	}
	srv.cfg.Logf("registered graph %q: %s, %d nodes, %d edges", g.name, kindString(g.kind), g.nodes, g.edges)
	writeJSON(w, http.StatusCreated, graphJSON(g, 0))
}

func (srv *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	out := make([]map[string]any, 0, len(srv.graphs))
	for _, g := range srv.graphs {
		out = append(out, graphJSON(g, g.refs))
	}
	srv.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (srv *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	g, ok := srv.graphs[r.PathValue("name")]
	var refs int
	if ok {
		refs = g.refs
	}
	srv.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, graphJSON(g, refs))
}

func (srv *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	srv.mu.Lock()
	g, ok := srv.graphs[name]
	if !ok {
		srv.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
		return
	}
	if g.refs > 0 {
		refs := g.refs
		srv.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("graph %q is referenced by %d live session(s); delete them first", name, refs))
		return
	}
	delete(srv.graphs, name)
	srv.mu.Unlock()
	srv.dropGraphFiles(name)
	g.closeMapping() // refs == 0 and the registry no longer hands the entry out
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// sessionJSON renders a session's full status, including the current
// snapshot (live mid-run to within one epoch — the progress hook keeps it
// fresh).
func (srv *Server) sessionJSON(s *session) map[string]any {
	snap := s.estimator().Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]any{
		"id":        s.id,
		"graph":     s.g.name,
		"workload":  kindString(s.g.kind),
		"backend":   s.params.Backend,
		"eps":       s.params.Eps,
		"delta":     s.params.Delta,
		"seed":      s.params.Seed,
		"state":     s.state,
		"converged": s.converged,
		"cached":    s.cached,
		"snapshot":  snapshotJSON(snapWithoutEstimates(snap)),
	}
	if s.params.TopK > 0 {
		out["top_k"] = s.params.TopK
	}
	if s.runErr != "" {
		out["error"] = s.runErr
	}
	if s.interrupted {
		out["interrupted"] = true
		if s.interruptReason != "" {
			out["interrupt_reason"] = s.interruptReason
		}
	}
	if s.degraded != "" {
		out["degraded"] = s.degraded
	}
	return out
}

func snapWithoutEstimates(snap betweenness.Snapshot) betweenness.Snapshot {
	snap.Estimates = nil
	return snap
}

// handleSessionCreate builds a session over a registered graph. The body
// is a sessionParams JSON object; the response echoes the session status.
func (srv *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var p sessionParams
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad session body: %w", err))
		return
	}
	if err := p.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	g, ok := srv.graphs[p.Graph]
	if !ok {
		srv.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q (upload it first)", p.Graph))
		return
	}
	id := srv.allocSessionIDLocked()
	srv.mu.Unlock()

	// Estimator construction validates options, and the first session on a
	// graph resolves its vertex diameter; do it outside srv.mu.
	s, err := srv.buildSession(id, g, p, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Persisted before it is registered, so no operation's write can race
	// this one.
	if err := srv.persistSession(s, nil); err != nil {
		srv.cfg.Logf("warning: persisting session %s: %v", id, err)
	}

	srv.mu.Lock()
	srv.sessions[id] = s
	g.refs++
	srv.mu.Unlock()

	srv.cfg.Logf("created session %s on graph %q (%s, eps=%g)", id, g.name, p.Backend, p.Eps)
	writeJSON(w, http.StatusCreated, srv.sessionJSON(s))
}

func (srv *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	out := make([]map[string]any, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, srv.sessionJSON(s))
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupSession resolves {id} or writes a 404.
func (srv *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return nil, false
	}
	return s, true
}

func (srv *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, srv.sessionJSON(s))
}

func (srv *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	if ok {
		delete(srv.sessions, id)
		s.g.refs--
	}
	srv.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	// Cancel a run in flight; the goroutine finishes against its own
	// session object and the files go away regardless.
	s.cancel()
	srv.dropSessionFiles(id)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleSessionRun starts an asynchronous Run: 202 on acceptance, 409 when
// an operation is already queued or running, 503 while draining. A cache
// hit completes the session without consuming a worker slot.
func (srv *Server) handleSessionRun(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	if err := s.start(opRun, refineSpec{}); err != nil {
		writeError(w, statusForStartError(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": s.id, "state": stateQueued})
}

// refineBody is the JSON body of POST /sessions/{id}/refine: the
// statistical retargets Estimator.Refine accepts.
type refineBody struct {
	Eps         float64 `json:"eps,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	TopK        int     `json:"top_k,omitempty"`
	MaxSamples  int64   `json:"max_samples,omitempty"`
	MaxDuration string  `json:"max_duration,omitempty"`
}

// handleSessionRefine starts an asynchronous Refine toward tighter
// targets, reusing every accumulated sample, on any backend.
func (srv *Server) handleSessionRefine(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	var body refineBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad refine body: %w", err))
		return
	}
	var opts []betweenness.Option
	if body.Eps > 0 {
		opts = append(opts, betweenness.WithEpsilon(body.Eps))
	}
	if body.Delta > 0 {
		opts = append(opts, betweenness.WithDelta(body.Delta))
	}
	if body.TopK > 0 {
		opts = append(opts, betweenness.WithTopK(body.TopK))
	}
	if body.MaxSamples > 0 {
		opts = append(opts, betweenness.WithMaxSamples(body.MaxSamples))
	}
	if body.MaxDuration != "" {
		d, err := time.ParseDuration(body.MaxDuration)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad max_duration %q", body.MaxDuration))
			return
		}
		opts = append(opts, betweenness.WithMaxDuration(d))
	}
	if len(opts) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("refine body names no targets (eps, delta, top_k, max_samples, max_duration)"))
		return
	}
	spec := refineSpec{opts: opts, apply: func(p *sessionParams) {
		if body.Eps > 0 {
			p.Eps = body.Eps
		}
		if body.Delta > 0 {
			p.Delta = body.Delta
		}
		if body.TopK > 0 && p.TopK > 0 {
			// Refine re-targets k on a certified session and only re-ranks
			// a uniform one; recording top_k on a uniform session would
			// make its params name the certified rule (see TopK).
			p.TopK = body.TopK
		}
		if body.MaxSamples > 0 {
			p.MaxSamples = body.MaxSamples
		}
		if body.MaxDuration != "" {
			p.MaxDuration = body.MaxDuration
		}
	}}
	if err := s.start(opRefine, spec); err != nil {
		writeError(w, statusForStartError(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": s.id, "state": stateQueued})
}

// parsePage reads the ?offset=&limit= pagination parameters against a
// vector of total elements. Absent parameters select the full vector
// (offset 0, limit = total), keeping the unpaginated responses unchanged;
// paged reports whether the caller asked for a window.
func parsePage(r *http.Request, total int) (offset, limit int, paged bool, err error) {
	limit = total
	if q := r.URL.Query().Get("offset"); q != "" {
		paged = true
		if offset, err = strconv.Atoi(q); err != nil || offset < 0 {
			return 0, 0, false, fmt.Errorf("bad offset %q", q)
		}
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		paged = true
		if limit, err = strconv.Atoi(q); err != nil || limit < 0 {
			return 0, 0, false, fmt.Errorf("bad limit %q", q)
		}
	}
	if offset > total {
		offset = total
	}
	if offset+limit > total {
		limit = total - offset
	}
	return offset, limit, paged, nil
}

// handleSessionResult returns the estimates of the last completed
// operation: top-k (?k=, default 10) always, the per-vertex vector with
// ?estimates=1 — paginated by ?offset=&limit= so a million-vertex result
// does not produce an unbounded response — plus "separated" when the
// session stopped by the certified top-k rule. 409 until a result exists.
func (srv *Server) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	res := s.result
	cached := s.cached
	s.mu.Unlock()
	if res == nil || res.Estimates == nil {
		writeError(w, http.StatusConflict, errors.New("no result yet: run the session first"))
		return
	}
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		var err error
		if k, err = strconv.Atoi(q); err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", q))
			return
		}
	}
	if k > len(res.Estimates) {
		k = len(res.Estimates)
	}
	top := make([]map[string]any, 0, k)
	for _, v := range res.TopK(k) {
		top = append(top, map[string]any{"vertex": v, "betweenness": res.Estimates[v]})
	}
	out := map[string]any{
		"backend":         res.Backend,
		"tau":             res.Tau,
		"converged":       res.Converged,
		"achieved_eps":    res.AchievedEps,
		"vertex_diameter": res.VertexDiameter,
		"cached":          cached,
		"top":             top,
	}
	if res.Lower != nil {
		// The session stopped by the certified top-k rule.
		out["separated"] = res.Separated
	}
	if r.URL.Query().Get("estimates") != "" {
		offset, limit, paged, err := parsePage(r, len(res.Estimates))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		out["estimates"] = res.Estimates[offset : offset+limit]
		if paged {
			out["offset"], out["limit"], out["total"] = offset, limit, len(res.Estimates)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionEstimates returns a window of the session's CURRENT
// per-vertex estimates — the live snapshot, not the last completed
// result — paginated by ?offset=&limit= (default: the full vector). This
// is the anytime read: valid under the achieved-eps guarantee at any
// moment, including mid-run.
func (srv *Server) handleSessionEstimates(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	snap := s.estimator().Snapshot()
	if snap.Estimates == nil {
		writeError(w, http.StatusConflict, errors.New("no estimates yet: run the session first"))
		return
	}
	offset, limit, _, err := parsePage(r, len(snap.Estimates))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tau":          snap.Tau,
		"achieved_eps": snap.AchievedEps,
		"total":        len(snap.Estimates),
		"offset":       offset,
		"limit":        limit,
		"estimates":    snap.Estimates[offset : offset+limit],
	})
}

// handleSessionEvents streams the session's progress as SSE: one
// "progress" event per epoch from the estimator's Progress hook, plus
// "state", "result", "interrupted", and "error" transitions. The stream
// opens with the current status so a late subscriber is never blind.
func (srv *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookupSession(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := s.subscribe()
	defer cancel()

	// Opening status frame.
	status, _ := json.Marshal(srv.sessionJSON(s))
	fmt.Fprintf(w, "event: status\ndata: %s\n\n", status)
	flusher.Flush()

	for {
		select {
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-srv.runCtx.Done():
			// Draining: close the stream so clients reconnect after restart.
			return
		}
	}
}

// statusForStartError maps session-start failures to status codes.
func statusForStartError(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusConflict
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

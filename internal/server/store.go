package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/betweenness"
	"repro/graph"
)

// On-disk layout under Config.DataDir (everything written atomically via
// tmp+rename with file and directory fsyncs, so a crash at ANY point —
// SIGKILL, OOM kill, power loss — leaves each file holding either its old
// bytes or its new bytes in full, never a torn mix):
//
//	graphs/<name>.json     graph metadata (kind, digest, sizes)
//	graphs/<name>.graph    canonical graph bytes (BCSR v2 for undirected —
//	                       served back to sessions by mmap — arc list /
//	                       weighted edge list for the others)
//	sessions/<id>.json     session metadata (params + outcome flags)
//	sessions/<id>.bck      estimator checkpoint (the versioned BCSE
//	                       envelope from betweenness.Checkpoint)
//	cache/<hash>.bcr       spilled result-cache entries (see diskcache.go)
//	quarantine/            damaged files set aside by the recovery scan
//
// Graphs persist at registration; session metadata persists at creation,
// refine, and degradation; checkpoints are written at the end of every run
// or refine, every CheckpointInterval during a run (via the estimator's
// in-run capture hook), and by Drain. The startup recovery scan
// (recovery.go) CRC-verifies what it finds and quarantines damage instead
// of failing, so a daemon that died uncleanly always comes back up.

type graphMeta struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Digest  string `json:"digest"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Reduced bool   `json:"reduced"`
}

type sessionMeta struct {
	ID     string        `json:"id"`
	Params sessionParams `json:"params"`
	// Converged/Cached describe the last completed operation, so a
	// restarted daemon reports the same session status it went down with.
	Converged bool `json:"converged"`
	Cached    bool `json:"cached"`
	// HasCheckpoint marks that a .bck file holds the estimator state.
	// Informational: rehydration trusts the file itself (see
	// checkpointPathFor), since a crash can land between the checkpoint
	// write and this flag's.
	HasCheckpoint bool `json:"has_checkpoint"`
	// Degraded carries the session's degradation note (a dist world that
	// shrank or fell back to shm, a checkpoint restored cross-engine)
	// across restarts.
	Degraded string `json:"degraded,omitempty"`
}

func (srv *Server) graphsDir() string   { return filepath.Join(srv.cfg.DataDir, "graphs") }
func (srv *Server) sessionsDir() string { return filepath.Join(srv.cfg.DataDir, "sessions") }
func (srv *Server) cacheDir() string    { return filepath.Join(srv.cfg.DataDir, "cache") }

// errSimulatedCrash is returned by the test-only crash-injection hook.
var errSimulatedCrash = errors.New("server: simulated crash between tmp write and rename")

// crashBeforeRename, when non-nil, simulates an unclean death between the
// durable temp-file write and the atomic rename: writeAtomic stops with the
// tmp file left behind, exactly the state a real crash at that point
// produces. Test-only; see TestCrashPointLeavesTmpQuarantined.
var crashBeforeRename func(path string) bool

// writeAtomic streams content to path via a same-directory temp file,
// fsyncs it, renames it into place, and fsyncs the directory — the rename
// is not durable until the directory entry is, so skipping the last step
// would let a power loss resurrect the old file or lose the new one. A
// failed or interrupted attempt leaves at most a *.tmp file, which the
// startup recovery scan quarantines.
func writeAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if crashBeforeRename != nil && crashBeforeRename(path) {
		return errSimulatedCrash
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes data to path via writeAtomic.
func writeFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// persistGraph writes the graph's canonical bytes and metadata. No-op
// without a data dir. Undirected graphs persist as BCSR v2 and, once the
// file is durable, the entry is switched to serve sessions off the mmap
// of that file — the upload's heap copy becomes garbage and the page
// cache backs every session that follows.
func (srv *Server) persistGraph(g *graphEntry) error {
	if srv.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(srv.graphsDir(), 0o755); err != nil {
		return err
	}
	path := filepath.Join(srv.graphsDir(), g.name+".graph")
	err := writeAtomic(path, func(w io.Writer) error {
		switch g.kind {
		case betweenness.WorkloadDirected:
			return graph.WriteArcList(w, g.dig)
		case betweenness.WorkloadWeighted:
			return graph.WriteWeightedEdgeList(w, g.wgt)
		default:
			return graph.WriteBCSR2(w, g.und.Load(), graph.WriteOptions{})
		}
	})
	if err != nil {
		return err
	}
	if g.kind == betweenness.WorkloadUndirected {
		if m, err := graph.OpenMapped(path); err == nil {
			srv.mu.Lock()
			g.mapped = m
			srv.mu.Unlock()
			g.und.Store(m.Graph())
		} else {
			// Serving the heap copy is always correct; the mapping is an
			// optimization, so its failure only costs memory.
			srv.cfg.Logf("warning: mapping persisted graph %q: %v", g.name, err)
		}
	}
	return writeJSONAtomic(filepath.Join(srv.graphsDir(), g.name+".json"), graphMeta{
		Name:    g.name,
		Kind:    kindString(g.kind),
		Digest:  g.digest,
		Nodes:   g.nodes,
		Edges:   g.edges,
		Reduced: g.reduced,
	})
}

// dropGraphFiles removes a deleted graph's files (best effort).
func (srv *Server) dropGraphFiles(name string) {
	if srv.cfg.DataDir == "" {
		return
	}
	os.Remove(filepath.Join(srv.graphsDir(), name+".graph"))
	os.Remove(filepath.Join(srv.graphsDir(), name+".json"))
}

// persistSessionMeta writes the session's metadata file. Callers must not
// hold s.mu. No-op without a data dir.
func (srv *Server) persistSessionMeta(s *session, hasCkpt bool) error {
	if srv.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(srv.sessionsDir(), 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	meta := sessionMeta{
		ID:            s.id,
		Params:        s.params,
		Converged:     s.converged,
		Cached:        s.cached,
		HasCheckpoint: hasCkpt,
		Degraded:      s.degraded,
	}
	s.mu.Unlock()
	return writeJSONAtomic(filepath.Join(srv.sessionsDir(), s.id+".json"), meta)
}

// checkpointSession writes the estimator state next to the metadata,
// returning whether a checkpoint was produced (sample-less sessions
// produce none, by design). Call only while the estimator is quiescent —
// between operations, or from the goroutine that just finished one.
func (srv *Server) checkpointSession(s *session) (bool, error) {
	est := s.estimator()
	if srv.cfg.DataDir == "" {
		return false, nil
	}
	snap := est.Snapshot()
	if snap.Tau == 0 {
		return false, nil // nothing sampled yet; a fresh session is cheaper than a checkpoint
	}
	if err := os.MkdirAll(srv.sessionsDir(), 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(srv.sessionsDir(), s.id+".bck")
	if err := writeAtomic(path, est.Checkpoint); err != nil {
		return false, err
	}
	s.noteCheckpoint(snap.Tau)
	return true, nil
}

// writeSessionCheckpoint persists a sealed checkpoint payload captured
// while the session's run is in flight. It is the sink every session's
// estimator gets (Estimator.SetCheckpointSink) and runs on the engine's
// coordinating goroutine between epochs, so it must only hand the bytes to
// the filesystem and go. Failures are logged, never fatal: a missed
// periodic checkpoint degrades the durability window, not the run.
func (srv *Server) writeSessionCheckpoint(s *session, payload []byte) {
	if srv.cfg.DataDir == "" || !srv.sessionLive(s) {
		return
	}
	if err := os.MkdirAll(srv.sessionsDir(), 0o755); err != nil {
		srv.cfg.Logf("warning: in-run checkpoint for %s: %v", s.id, err)
		return
	}
	path := filepath.Join(srv.sessionsDir(), s.id+".bck")
	if err := writeFileAtomic(path, payload); err != nil {
		srv.cfg.Logf("warning: in-run checkpoint for %s: %v", s.id, err)
		return
	}
	// The progress hook keeps the last observation fresh per epoch, so this
	// tau tracks what the payload holds closely enough to dedupe no-op
	// checkpoints at the end of the run.
	s.noteCheckpoint(s.estimator().Snapshot().Tau)
	if err := srv.persistSessionMeta(s, true); err != nil {
		srv.cfg.Logf("warning: persisting session %s meta: %v", s.id, err)
	}
}

// checkpointAfterOp persists the estimator state at the end of a run or
// refine. It runs on the op goroutine after the estimate returned but
// before the session flips back to idle, so it still owns the estimator
// exclusively — no lock juggling with a new op — and an unclean death any
// time after it loses nothing of the completed operation. No-op when
// nothing new was sampled (cache-hit completions, failed admissions).
func (srv *Server) checkpointAfterOp(s *session) {
	if srv.cfg.DataDir == "" || !srv.sessionLive(s) {
		return
	}
	tau := s.estimator().Snapshot().Tau
	s.mu.Lock()
	last := s.lastCkptTau
	s.mu.Unlock()
	if tau == 0 || tau == last {
		return
	}
	hasCkpt, err := srv.checkpointSession(s)
	if err == nil {
		err = srv.persistSessionMeta(s, hasCkpt)
	}
	if err != nil {
		srv.cfg.Logf("warning: checkpointing session %s: %v", s.id, err)
	}
}

// dropSessionFiles removes a deleted session's files (best effort).
func (srv *Server) dropSessionFiles(id string) {
	if srv.cfg.DataDir == "" {
		return
	}
	os.Remove(filepath.Join(srv.sessionsDir(), id+".json"))
	srv.removeSessionCheckpoint(id)
}

// removeSessionCheckpoint removes a session's checkpoint (best effort): the
// session is gone, or its estimator was rebuilt and the file describes the
// one it replaced.
func (srv *Server) removeSessionCheckpoint(id string) {
	if srv.cfg.DataDir != "" {
		os.Remove(filepath.Join(srv.sessionsDir(), id+".bck"))
	}
}

// loadGraphs rehydrates the graph registry from the data dir. Damaged
// entries are quarantined and skipped (their sessions are quarantined by
// loadSessions in turn); only a filesystem-level failure aborts startup.
func (srv *Server) loadGraphs() error {
	entries, err := os.ReadDir(srv.graphsDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		metaPath := filepath.Join(srv.graphsDir(), de.Name())
		g, err := srv.loadGraphEntry(metaPath)
		if err != nil {
			srv.quarantine(metaPath, err.Error())
			srv.quarantine(strings.TrimSuffix(metaPath, ".json")+".graph",
				"graph bytes for quarantined metadata")
			continue
		}
		srv.graphs[g.name] = g
	}
	return nil
}

// loadGraphEntry loads one graph from its metadata file.
func (srv *Server) loadGraphEntry(metaPath string) (*graphEntry, error) {
	data, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, err
	}
	var meta graphMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("graph meta %s: %w", filepath.Base(metaPath), err)
	}
	kind, err := parseKind(meta.Kind)
	if err != nil {
		return nil, fmt.Errorf("graph meta %s: %w", filepath.Base(metaPath), err)
	}
	g := &graphEntry{
		name:    meta.Name,
		kind:    kind,
		digest:  meta.Digest,
		nodes:   meta.Nodes,
		edges:   meta.Edges,
		reduced: meta.Reduced,
	}
	path := filepath.Join(srv.graphsDir(), meta.Name+".graph")
	switch kind {
	case betweenness.WorkloadDirected:
		g.dig, err = graph.LoadDigraphFile(path)
	case betweenness.WorkloadWeighted:
		g.wgt, err = graph.LoadWGraphFile(path)
	default:
		// A v1 file from a store written before the v2 format fails here
		// with a BCSRVersionError whose hint names graphconv, and the entry
		// is quarantined.
		var m *graph.Mapped
		if m, err = graph.OpenMapped(path); err == nil {
			g.mapped = m
			g.und.Store(m.Graph())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("loading graph %s: %w", meta.Name, err)
	}
	return g, nil
}

// loadSessions rehydrates sessions: checkpointed ones resume their exact
// sampling state via RestoreEstimator; the rest are recreated fresh (same
// identity, zero samples). A torn or corrupt checkpoint is quarantined and
// its session served fresh; unreadable metadata, or metadata naming a
// backend this build cannot construct, quarantines the whole session.
// Startup only fails on filesystem-level errors.
func (srv *Server) loadSessions() error {
	entries, err := os.ReadDir(srv.sessionsDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	maxID := 0
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		metaPath := filepath.Join(srv.sessionsDir(), de.Name())
		id := strings.TrimSuffix(de.Name(), ".json")
		quarantineSession := func(reason string) {
			srv.quarantine(metaPath, reason)
			srv.quarantine(filepath.Join(srv.sessionsDir(), id+".bck"),
				"checkpoint for quarantined session metadata")
		}
		data, err := os.ReadFile(metaPath)
		if err != nil {
			quarantineSession(err.Error())
			continue
		}
		var meta sessionMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			quarantineSession(fmt.Sprintf("unreadable session metadata: %v", err))
			continue
		}
		// Sessions persisted under the removed alg1 backend name ran
		// Algorithm 2 at one sampling thread per rank, which is what dist
		// runs unless threads says otherwise: re-key them, once.
		rekeyed := meta.Params.Backend == "alg1"
		if rekeyed {
			meta.Params.Backend = "dist"
		}
		// Checked here, not left to buildSession: there the error would be
		// read as a damaged checkpoint and an intact one set aside for it.
		if _, err := meta.Params.executor(); err != nil {
			quarantineSession(err.Error())
			continue
		}
		g, ok := srv.graphs[meta.Params.Graph]
		if !ok {
			quarantineSession(fmt.Sprintf("references unknown graph %q (missing or quarantined)", meta.Params.Graph))
			continue
		}
		ckptPath := srv.checkpointPathFor(meta.ID)
		s, err := srv.buildSession(meta.ID, g, meta.Params, ckptPath)
		if err != nil && ckptPath != "" {
			// The checkpoint is torn, corrupt, or version-skewed: set it
			// aside and serve the session fresh — identity intact, the
			// damaged samples lost, startup unharmed.
			srv.quarantine(ckptPath, err.Error())
			s, err = srv.buildSession(meta.ID, g, meta.Params, "")
			if err == nil {
				s.degraded = "checkpoint quarantined at startup; session restarted fresh"
			}
		}
		if err != nil {
			quarantineSession(fmt.Sprintf("restoring session: %v", err))
			continue
		}
		s.converged = meta.Converged
		s.cached = meta.Cached
		if meta.Degraded != "" && s.degraded == "" {
			s.degraded = meta.Degraded
		}
		srv.sessions[s.id] = s
		g.refs++
		if rekeyed {
			if err := srv.persistSessionMeta(s, srv.checkpointPathFor(s.id) != ""); err != nil {
				srv.cfg.Logf("warning: persisting re-keyed session %s meta: %v", s.id, err)
			}
		}
		if n, ok := sessionNumber(meta.ID); ok && n > maxID {
			maxID = n
		}
	}
	if srv.nextSession <= maxID {
		srv.nextSession = maxID + 1
	}
	return nil
}

// checkpointPathFor returns the on-disk checkpoint to restore from, or ""
// when the session restarts fresh. It trusts the file, not the metadata
// flag: an in-run checkpoint and its metadata update are two separate
// writes, and a crash between them must not hide a good checkpoint.
func (srv *Server) checkpointPathFor(id string) string {
	path := filepath.Join(srv.sessionsDir(), id+".bck")
	if _, err := os.Stat(path); err != nil {
		return ""
	}
	return path
}

// sessionNumber parses the numeric part of a generated "s<N>" id.
func sessionNumber(id string) (int, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

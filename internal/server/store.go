package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
//	sessions/<id>.bck      the session record: its daemon section (params,
//	                       outcome flags, degradation note) and, once it has
//	                       samples, its estimator state
//	quarantine/            damaged files set aside by the recovery scan
//
// Graphs persist at registration. A session's record is rewritten whole,
// in one write, at creation, at the end of every run or refine that changed
// it, every CheckpointInterval during a run (via the estimator's in-run
// capture hook), and by Drain — so what a session reports and the samples
// it holds never disagree on disk. The startup recovery scan (recovery.go)
// CRC-verifies what it finds and quarantines damage instead of failing, so
// a daemon that died uncleanly always comes back up.
//
// A session record is
//
//	"BCDS" magic · u16 version · u32 section length · JSON sessionMeta ·
//	CRC-32 (IEEE) of everything before it · state
//
// where the state is the versioned BCSE envelope of betweenness.Checkpoint
// (or an in-run capture of one), absent while the session has no samples.
// The section's CRC and the envelope's own let the halves fail apart: a
// damaged section quarantines the session, a damaged or foreign state only
// costs it its samples.
const (
	recordMagic     = "BCDS" // betweenness daemon session
	recordVersion   = 1
	recordHeaderLen = 4 + 2 + 4
	// maxRecordSection bounds the section length the decoder accepts
	// before it allocates; a sessionMeta is a few hundred bytes.
	maxRecordSection = 1 << 20
)

type graphMeta struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Digest  string `json:"digest"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Reduced bool   `json:"reduced"`
}

// sessionMeta is a record's daemon section (and, before records, the whole
// of sessions/<id>.json).
type sessionMeta struct {
	ID     string        `json:"id"`
	Params sessionParams `json:"params"`
	// Converged/Cached describe the last operation, so a restarted daemon
	// reports the session status it went down with.
	Converged bool `json:"converged"`
	Cached    bool `json:"cached"`
	// StateConverged says the state beside this section is converged: the
	// session's own estimator returned a converged result from it and has
	// not sampled since, so a Run returns that result without sampling.
	// Converged does not say so: a cache-hit completion converges a session
	// whose own samples may be partial, and a record migrated from the old
	// layout may pair a converged flag with a later, partial capture.
	StateConverged bool `json:"state_converged,omitempty"`
	// Degraded carries the session's degradation note (a checkpoint
	// quarantined at startup) across restarts.
	Degraded string `json:"degraded,omitempty"`
}

// encodeRecordHead seals meta into a record's daemon section; the state,
// if any, follows it.
func encodeRecordHead(meta sessionMeta) ([]byte, error) {
	section, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if len(section) > maxRecordSection {
		return nil, fmt.Errorf("session %s: record section of %d bytes exceeds %d", meta.ID, len(section), maxRecordSection)
	}
	head := make([]byte, 0, recordHeaderLen+len(section)+4)
	head = append(head, recordMagic...)
	head = binary.LittleEndian.AppendUint16(head, recordVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(section)))
	head = append(head, section...)
	return binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head)), nil
}

// decodeRecord verifies a session record's daemon section and splits off
// its state (nil when the session had no samples; the restore that reads
// it verifies it). The bytes are untrusted — a torn write, a bad disk — so
// every failure is an error, and the caller quarantines.
func decodeRecord(data []byte) (sessionMeta, []byte, error) {
	var meta sessionMeta
	if len(data) < recordHeaderLen+4 {
		return meta, nil, fmt.Errorf("session record too short (%d bytes)", len(data))
	}
	if string(data[:4]) != recordMagic {
		return meta, nil, errors.New("not a session record (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != recordVersion {
		return meta, nil, fmt.Errorf("unsupported session record version %d (want %d)", v, recordVersion)
	}
	n := binary.LittleEndian.Uint32(data[6:])
	if n > maxRecordSection || int(n) > len(data)-recordHeaderLen-4 {
		return meta, nil, fmt.Errorf("session record section length %d out of range", n)
	}
	end := recordHeaderLen + int(n)
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return meta, nil, errors.New("session record checksum mismatch (truncated or corrupted)")
	}
	if err := json.Unmarshal(data[recordHeaderLen:end], &meta); err != nil {
		return meta, nil, fmt.Errorf("unreadable session record section: %w", err)
	}
	if state := data[end+4:]; len(state) > 0 {
		return meta, state, nil
	}
	return meta, nil, nil
}

func (srv *Server) graphsDir() string   { return filepath.Join(srv.cfg.DataDir, "graphs") }
func (srv *Server) sessionsDir() string { return filepath.Join(srv.cfg.DataDir, "sessions") }

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

// persistSession writes the session's record in one writeAtomic: its
// daemon section, then its state — payload when the in-run sink captured
// one, else the estimator's own checkpoint once it holds samples (callers
// guarantee no operation is running then), else none. No-op without a
// data dir.
func (srv *Server) persistSession(s *session, payload []byte) error {
	if srv.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(srv.sessionsDir(), 0o755); err != nil {
		return err
	}
	tau := int64(-1) // unknown: an in-run capture is not the snapshot's tau
	if payload == nil {
		tau = s.est.Snapshot().Tau
	}
	s.mu.Lock()
	meta := s.metaLocked()
	s.mu.Unlock()
	head, err := encodeRecordHead(meta)
	if err != nil {
		return err
	}
	err = writeAtomic(filepath.Join(srv.sessionsDir(), s.id+".bck"), func(w io.Writer) error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		switch {
		case payload != nil:
			_, err = w.Write(payload)
		case tau > 0:
			err = s.est.Checkpoint(w)
		}
		return err
	})
	if err == nil {
		s.mu.Lock()
		s.saved, s.savedTau = meta, tau
		s.mu.Unlock()
	}
	return err
}

// writeSessionCheckpoint persists a sealed checkpoint payload captured
// while the session's run is in flight. It is the sink every session's
// estimator gets (Estimator.SetCheckpointSink) and runs on the engine's
// coordinating goroutine between epochs, so it must only hand the bytes to
// the filesystem and go. Failures are logged, never fatal: a missed
// periodic checkpoint degrades the durability window, not the run.
func (srv *Server) writeSessionCheckpoint(s *session, payload []byte) {
	if !srv.sessionLive(s) {
		return
	}
	if err := srv.persistSession(s, payload); err != nil {
		srv.cfg.Logf("warning: in-run checkpoint for %s: %v", s.id, err)
	}
}

// persistAfterOp writes the session's record at the end of a run or
// refine, outcome flags included. It runs on the op goroutine before the
// session flips back to idle, so it still owns the estimator exclusively —
// no lock juggling with a new op — and an unclean death any time after it
// loses nothing of the completed operation. No-op when the operation
// changed neither the samples nor the section (a failed admission).
func (srv *Server) persistAfterOp(s *session) {
	if srv.cfg.DataDir == "" || !srv.sessionLive(s) {
		return
	}
	tau := s.est.Snapshot().Tau
	s.mu.Lock()
	unchanged := s.metaLocked() == s.saved && tau == s.savedTau
	s.mu.Unlock()
	if unchanged {
		return
	}
	if err := srv.persistSession(s, nil); err != nil {
		srv.cfg.Logf("warning: persisting session %s: %v", s.id, err)
	}
}

// dropSessionFiles removes a deleted session's record (best effort).
func (srv *Server) dropSessionFiles(id string) {
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

// loadSessions rehydrates sessions from their records, after migrating a
// data dir written before records: a record with a state resumes its exact
// sampling state via RestoreEstimator, one without is recreated fresh (same
// identity, zero samples). Startup only fails on filesystem-level errors.
func (srv *Server) loadSessions() error {
	entries, err := os.ReadDir(srv.sessionsDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err == nil {
		err = srv.migrateLegacySessions(entries)
	}
	if err == nil {
		entries, err = os.ReadDir(srv.sessionsDir())
	}
	if err != nil {
		return err
	}
	maxID := 0
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".bck" {
			continue
		}
		path := filepath.Join(srv.sessionsDir(), de.Name())
		s, err := srv.loadSession(path)
		if err != nil {
			srv.quarantine(path, err.Error())
			continue
		}
		srv.sessions[s.id] = s
		s.g.refs++
		if n, ok := sessionNumber(s.id); ok && n > maxID {
			maxID = n
		}
	}
	if srv.nextSession <= maxID {
		srv.nextSession = maxID + 1
	}
	return nil
}

// loadSession restores one session from its record. A damaged section, or
// one naming a backend this build cannot construct or a graph that is gone,
// is an error: the caller quarantines the record and the session with it.
// A torn, corrupt or foreign state sets the record aside here and serves
// the session fresh, under a new record that says so.
func (srv *Server) loadSession(path string) (*session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, state, err := decodeRecord(data)
	if err != nil {
		return nil, err
	}
	if id := strings.TrimSuffix(filepath.Base(path), ".bck"); meta.ID != id {
		return nil, fmt.Errorf("record of session %q filed as %s", meta.ID, id)
	}
	// Checked here, not left to buildSession: there the error would be
	// read as a damaged state and an intact one set aside for it.
	if _, err := meta.Params.executor(); err != nil {
		return nil, err
	}
	g, ok := srv.graphs[meta.Params.Graph]
	if !ok {
		return nil, fmt.Errorf("references unknown graph %q (missing or quarantined)", meta.Params.Graph)
	}
	s, err := srv.buildSession(meta.ID, g, meta.Params, state)
	if err != nil && state != nil {
		srv.quarantine(path, err.Error())
		if s, err = srv.buildSession(meta.ID, g, meta.Params, nil); err == nil {
			s.degraded = "checkpoint quarantined at startup; session restarted fresh"
			if err := srv.persistSession(s, nil); err != nil {
				srv.cfg.Logf("warning: persisting session %s: %v", s.id, err)
			}
			return s, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("restoring session: %w", err)
	}
	s.converged, s.cached, s.degraded = meta.Converged, meta.Cached, meta.Degraded
	s.stateConverged = meta.StateConverged && state != nil
	s.saved, s.savedTau = meta, s.est.Snapshot().Tau
	if s.stateConverged {
		srv.rehydrateResult(s)
	}
	return s, nil
}

// rehydrateResult re-seeds the result cache from a restored session whose
// state is converged: Run on such a state returns its result without
// sampling. So a converged answer survives a crash as long as its session
// does.
func (srv *Server) rehydrateResult(s *session) {
	res, err := s.est.Run(srv.runCtx)
	if err != nil {
		srv.cfg.Logf("warning: session %s: rehydrating its result: %v", s.id, err)
		return
	}
	s.result = res
	s.cacheResult(res)
}

// migrateLegacySessions rewrites the sessions of a data dir written before
// session records — sessions/<id>.json (params and flags) beside a bare
// BCSE checkpoint sessions/<id>.bck once the session had samples — as one
// record each, then removes the .json. A crash between the two steps
// leaves a .json beside the record it already became, which the next start
// just removes: the two kinds of .bck differ in their magic. A migrated
// record never claims a converged state (an in-run capture of a later
// refine may have replaced the one a converged flag was written for), so
// its answer returns to the result cache at its session's next Run, which
// samples only if the state needs it. Sessions
// persisted under the removed alg1 backend name ran Algorithm 2 at one
// sampling thread per rank, which is what dist runs unless threads says
// otherwise: they are re-keyed here, the one place the name can appear.
func (srv *Server) migrateLegacySessions(entries []os.DirEntry) error {
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		metaPath := filepath.Join(srv.sessionsDir(), de.Name())
		path := strings.TrimSuffix(metaPath, ".json") + ".bck"
		state, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if bytes.HasPrefix(state, []byte(recordMagic)) {
			os.Remove(metaPath)
			continue
		}
		var meta sessionMeta
		var head []byte
		data, err := os.ReadFile(metaPath)
		if err == nil {
			err = json.Unmarshal(data, &meta)
		}
		if meta.Params.Backend == "alg1" {
			meta.Params.Backend = "dist"
		}
		if err == nil {
			head, err = encodeRecordHead(meta)
		}
		if err != nil {
			srv.quarantine(metaPath, fmt.Sprintf("unreadable session metadata: %v", err))
			srv.quarantine(path, "checkpoint for quarantined session metadata")
			continue
		}
		if err := writeFileAtomic(path, append(head, state...)); err != nil {
			return fmt.Errorf("migrating session %s: %w", meta.ID, err)
		}
		os.Remove(metaPath)
	}
	return nil
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

package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// The startup recovery scan. A daemon that died uncleanly — SIGKILL, OOM
// kill, power loss — can leave the data dir holding stale *.tmp files (a
// write interrupted before its rename) and, on filesystems without the
// atomic-rename guarantees we fsync for, torn or corrupt files. The scan's
// contract is that damage NEVER keeps the daemon down: every damaged file
// is quarantined — renamed into <data>/quarantine/ with a logged reason —
// and the object it belonged to is served fresh (a session restarts from
// zero samples). Only filesystem-level failures (the data dir itself
// unreadable) abort startup.
//
// Quarantined files are kept, not deleted: they are the post-mortem
// evidence of whatever corrupted them, and an operator can inspect or
// delete <data>/quarantine/ freely — the daemon never reads it back.

func (srv *Server) quarantineDir() string {
	return filepath.Join(srv.cfg.DataDir, "quarantine")
}

// quarantine moves path into the quarantine directory and logs why. Missing
// files are ignored (the caller often quarantines a pair of files of which
// only one exists). The quarantined name keeps the original base name,
// suffixed with a sequence number when a previous incident already parked
// one there.
func (srv *Server) quarantine(path, reason string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	if err := os.MkdirAll(srv.quarantineDir(), 0o755); err != nil {
		srv.cfg.Logf("warning: cannot quarantine %s: %v", path, err)
		return
	}
	base := filepath.Base(path)
	dst := filepath.Join(srv.quarantineDir(), base)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(srv.quarantineDir(), fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		srv.cfg.Logf("warning: cannot quarantine %s: %v", path, err)
		return
	}
	atomic.AddInt64(&srv.quarantined, 1)
	srv.cfg.Logf("quarantined %s -> %s: %s", path, dst, reason)
}

// sweepStaleTmp quarantines *.tmp leftovers in dir — the footprint of a
// write interrupted between the temp-file write and its rename. The
// completed file (if any) next to it is intact by construction, so only the
// tmp file goes.
func (srv *Server) sweepStaleTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // missing dir: nothing was ever written there
	}
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".tmp" {
			continue
		}
		srv.quarantine(filepath.Join(dir, de.Name()),
			"stale temp file from an interrupted write")
	}
}

// recoveryScan runs the full crash-consistency pass before the registries
// rehydrate: sweep interrupted writes out of every state directory, then
// let loadGraphs/loadSessions verify what remains. A cache/ dir is the
// result-cache spill of an older build: derived data, which the converged
// sessions re-seed, so it just goes. Called from New with a data dir
// configured.
func (srv *Server) recoveryScan() {
	srv.sweepStaleTmp(srv.graphsDir())
	srv.sweepStaleTmp(srv.sessionsDir())
	dir := filepath.Join(srv.cfg.DataDir, "cache")
	if _, err := os.Stat(dir); err != nil {
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		srv.cfg.Logf("warning: removing obsolete result-cache dir: %v", err)
		return
	}
	srv.cfg.Logf("removed obsolete result-cache dir %s", dir)
}

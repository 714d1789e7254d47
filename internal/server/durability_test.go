package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/betweenness"
)

// The crash-safety suite. The in-process "SIGKILL" is a crash image: a
// file-by-file copy of the data dir taken mid-run (reads go through the
// same atomic-rename files a real crash would leave, and *.tmp files are
// skipped as a crash leaves them unrenamed), restarted in a fresh Server.
// The real kill -9 against the real binary lives in
// scripts/crash_smoke.sh.

// copyDataDir snapshots src into a fresh directory, skipping *.tmp files
// (a crash image never contains a completed rename of an in-flight write) —
// including one that vanishes between the directory listing and the lstat
// because the live daemon renamed it into place meanwhile, as any backup of
// a live data dir sees.
func copyDataDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) && filepath.Ext(path) == ".tmp" {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if filepath.Ext(path) == ".tmp" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying data dir: %v", err)
	}
	return dst
}

// sessionTau reads the session's current sample count over the API.
func sessionTau(t *testing.T, base, id string) float64 {
	t.Helper()
	code, status := do(t, "GET", base+"/sessions/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET session %s: status %d", id, code)
	}
	return status["snapshot"].(map[string]any)["tau"].(float64)
}

// quarantineEntries lists the base names currently in the quarantine dir.
func quarantineEntries(t *testing.T, dataDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "quarantine"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		names = append(names, de.Name())
	}
	return names
}

// readRecord decodes a session's record on disk.
func readRecord(t *testing.T, dataDir, id string) (sessionMeta, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "sessions", id+".bck"))
	if err != nil {
		t.Fatal(err)
	}
	meta, state, err := decodeRecord(data)
	if err != nil {
		t.Fatalf("session %s: %v", id, err)
	}
	return meta, state
}

// writeRecord replaces a session's record on disk, as a crash or another
// build might have left it.
func writeRecord(t *testing.T, dataDir string, meta sessionMeta, state []byte) {
	t.Helper()
	head, err := encodeRecordHead(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "sessions", meta.ID+".bck"), append(head, state...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicCheckpointDuringRun is the SIGKILL acceptance scenario
// in-process: a converged result and a long run captured every
// CheckpointInterval survive a crash image taken mid-run — the restarted
// daemon serves the converged result from the cache its session's record
// re-seeds and resumes the interrupted session with at most one checkpoint
// interval of sampling lost. Pinned by the CI race job: the in-run capture
// (engine-side capture, sink write) runs concurrently with sampling and
// status reads.
func TestPeriodicCheckpointDuringRun(t *testing.T) {
	dataDir := t.TempDir()
	// One worker slot per long run below: none may wait for another to finish.
	srvA, tsA := newTestServer(t, Config{DataDir: dataDir, CheckpointInterval: 25 * time.Millisecond, MaxConcurrentRuns: 3})
	name := uploadGraph(t, tsA.URL, "web", testGraphBytes(t))

	// A quick converged run: its record holds the converged state.
	warmParams := map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 9}
	warm := createSession(t, tsA.URL, warmParams)
	do(t, "POST", tsA.URL+"/sessions/"+warm+"/run", nil)
	if status := waitIdle(t, tsA.URL, warm); status["converged"] != true {
		t.Fatalf("warm session did not converge: %v", status)
	}

	// Long runs for the engine to capture mid-flight: the seq
	// capture is exact; the shm and dist ones are taken while the threads
	// and ranks sample, and restore as the shm and dist sessions they were
	// — under the certified top-k rule they were created with, which their
	// checkpoints record. A session that converged before the image leaves
	// nothing to resume: top-3 separation on this graph takes ~0.6M samples,
	// which the shm run drew (~0.2 s, 2 threads on a Xeon) before the seq
	// run's calibration ended and its first capture landed. Top-5 separation
	// is not reached before omega, ~3M samples.
	const longEps = 0.001
	longs := []map[string]any{
		{"graph": name, "eps": longEps, "delta": 0.1, "seed": 1},
		{"graph": name, "eps": longEps, "delta": 0.1, "seed": 1, "backend": "shm", "threads": 2, "top_k": 5},
		{"graph": name, "eps": longEps, "delta": 0.1, "seed": 1, "backend": "dist", "procs": 2, "threads": 2, "top_k": 5},
	}
	ids := make([]string, len(longs))
	for i, params := range longs {
		ids[i] = createSession(t, tsA.URL, params)
		do(t, "POST", tsA.URL+"/sessions/"+ids[i]+"/run", nil)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, long := range ids {
		for {
			// The record exists from creation; wait for one that holds an
			// in-run capture (a completion record says converged).
			if meta, state := readRecord(t, dataDir, long); state != nil && !meta.Converged && sessionTau(t, tsA.URL, long) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no in-run capture of running session %s reached its record", long)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Pull the plug: image the data dir mid-run, then stop the doomed
	// server without draining (its estimators never get to checkpoint at
	// completion into the image).
	// Image first, read tau second: sampling only moves forward, so any
	// checkpoint inside the image is at or behind the tau read afterwards.
	crashDir := copyDataDir(t, dataDir)
	tauAtKill := make([]float64, len(ids))
	for i, long := range ids {
		tauAtKill[i] = sessionTau(t, tsA.URL, long)
	}
	srvA.cancelRuns()
	srvA.wg.Wait()
	tsA.Close()

	srvB, tsB := newTestServer(t, Config{DataDir: crashDir})

	for i, long := range ids {
		// The interrupted session resumes behind, never ahead, of the kill
		// point: what survives is the last checkpoint.
		restored := sessionTau(t, tsB.URL, long)
		if restored <= 0 {
			t.Fatalf("restored session %s lost all samples (tau %v)", long, restored)
		}
		wantBackend, _ := longs[i]["backend"].(string)
		if wantBackend == "" {
			wantBackend = "seq"
		}
		_, st := do(t, "GET", tsB.URL+"/sessions/"+long, nil)
		if _, degraded := st["degraded"]; degraded || st["backend"] != wantBackend {
			t.Fatalf("session %s (%v) came back as %v", long, longs[i], st)
		}
		if restored > tauAtKill[i] {
			t.Fatalf("restored tau %v of %s exceeds tau at kill %v", restored, long, tauAtKill[i])
		}
		if code, _ := do(t, "POST", tsB.URL+"/sessions/"+long+"/run", nil); code != http.StatusAccepted {
			t.Fatal("resume after crash not accepted")
		}
		status := waitIdle(t, tsB.URL, long)
		if status["converged"] != true {
			t.Fatalf("resumed session did not converge: %v", status)
		}
		if tau := sessionTau(t, tsB.URL, long); tau <= restored {
			t.Fatalf("resume of %s (%v) did not extend samples: %v -> %v (status %v)", long, longs[i], restored, tau, status)
		}
		// All converged by the rule they were created with: top_k names the
		// certified one, on every backend.
		_, res := do(t, "GET", tsB.URL+"/sessions/"+long+"/result", nil)
		_, certified := res["separated"]
		if _, wantCertified := longs[i]["top_k"]; certified != wantCertified || !certified && res["achieved_eps"].(float64) > longEps {
			t.Fatalf("session %s (%v) came back under the wrong rule (certified %v): %v", long, longs[i], certified, res)
		}
	}

	// The converged result survived the crash: an identical query on the
	// restarted daemon is a cache hit, re-seeded from the warm session.
	repeat := createSession(t, tsB.URL, warmParams)
	do(t, "POST", tsB.URL+"/sessions/"+repeat+"/run", nil)
	if status := waitIdle(t, tsB.URL, repeat); status["cached"] != true {
		t.Fatalf("converged result did not survive the crash: %v", status)
	}
	_ = srvB
}

// setPersistedBackend rewrites the backend name in a session's record, as
// a newer daemon build would have left it.
func setPersistedBackend(t *testing.T, dataDir, id, backend string) {
	t.Helper()
	meta, state := readRecord(t, dataDir, id)
	meta.Params.Backend = backend
	writeRecord(t, dataDir, meta, state)
}

// TestAlg1SessionRekeyedAtLoad: a data dir written when the daemon still
// had an alg1 backend (Algorithm 2 at one thread per rank, which is dist's
// default) must come back as a dist session — not be dropped, and not run
// on some other engine under the old label — with the re-keyed record on
// disk, so the second restart finds nothing left to translate.
func TestAlg1SessionRekeyedAtLoad(t *testing.T) {
	dataDir := copyDataDir(t, legacyDir)
	const id = "s4" // persisted as alg1
	srvB, tsB := newTestServer(t, Config{DataDir: dataDir})
	if q := quarantineEntries(t, dataDir); len(q) != 0 {
		t.Fatalf("alg1 session quarantined instead of re-keyed: %v", q)
	}
	if code, status := do(t, "GET", tsB.URL+"/sessions/"+id, nil); code != http.StatusOK || status["backend"] != "dist" {
		t.Fatalf("alg1 session after restart: status %d, %v; want backend dist", code, status)
	}
	// The translation is for persisted state only: the API no longer
	// accepts the name.
	body, _ := json.Marshal(map[string]any{"graph": "g", "backend": "alg1"})
	if code, resp := do(t, "POST", tsB.URL+"/sessions", body); code != http.StatusBadRequest {
		t.Fatalf("POST /sessions with backend alg1: status %d, %v; want 400", code, resp)
	}
	do(t, "POST", tsB.URL+"/sessions/"+id+"/run", nil)
	if status := waitIdle(t, tsB.URL, id); status["converged"] != true || status["backend"] != "dist" {
		t.Fatalf("re-keyed session did not converge on dist: %v", status)
	}
	if err := srvB.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	tsB.Close()
	recordPath := filepath.Join(dataDir, "sessions", id+".bck")
	persisted, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(persisted, []byte("alg1")) {
		t.Fatalf("re-keyed record not persisted: %q", persisted)
	}

	_, tsC := newTestServer(t, Config{DataDir: dataDir})
	if code, status := do(t, "GET", tsC.URL+"/sessions/"+id, nil); code != http.StatusOK ||
		status["backend"] != "dist" || status["converged"] != true {
		t.Fatalf("re-keyed session after the second restart: status %d, %v", code, status)
	}
	if again, err := os.ReadFile(recordPath); err != nil || !bytes.Equal(again, persisted) {
		t.Fatalf("second restart rewrote the record (%v)", err)
	}
}

// TestCorruptionQuarantine seeds a data dir with every class of damage an
// unclean death can leave — a record whose state is truncated or
// bit-rotted, a zero-byte record, a record whose section fails its CRC, a
// stale tmp file — and asserts startup succeeds with each file quarantined:
// a damaged state serves its session fresh, a damaged section loses the
// session.
func TestCorruptionQuarantine(t *testing.T) {
	cases := []struct {
		name string
		// damage mutates the healthy data dir; id is the checkpointed session,
		// whose record holds the daemon section, then the state.
		damage func(t *testing.T, dataDir, id string)
		// sessionFresh: the session must come back with zero samples.
		sessionFresh bool
		// sessionGone: the whole session was quarantined (404 after restart).
		sessionGone bool
		// ckptReason, when set, must be the logged reason for quarantining
		// the session's record.
		ckptReason string
	}{
		{
			name: "truncated checkpoint",
			damage: func(t *testing.T, dataDir, id string) {
				path := filepath.Join(dataDir, "sessions", id+".bck")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			sessionFresh: true,
		},
		{
			name: "checkpoint bad CRC",
			damage: func(t *testing.T, dataDir, id string) {
				path := filepath.Join(dataDir, "sessions", id+".bck")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			sessionFresh: true,
		},
		{
			name: "zero-byte session metadata",
			damage: func(t *testing.T, dataDir, id string) {
				if err := os.WriteFile(filepath.Join(dataDir, "sessions", id+".bck"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			sessionGone: true,
		},
		{
			name: "session metadata bad CRC",
			damage: func(t *testing.T, dataDir, id string) {
				path := filepath.Join(dataDir, "sessions", id+".bck")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Still valid JSON naming a valid session, so only the CRC
				// tells the damage apart.
				at := bytes.Index(data, []byte(`"seed":3`))
				if at < 0 {
					t.Fatal("no seed in the record section")
				}
				data[at+len(`"seed":`)] = '4'
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			sessionGone: true,
		},
		{
			// A backend name this build cannot construct must not come
			// back as a seq session under the stale label, and the
			// intact state in the record must not be blamed for it.
			name: "unknown backend in session metadata",
			damage: func(t *testing.T, dataDir, id string) {
				setPersistedBackend(t, dataDir, id, "mystery")
			},
			sessionGone: true,
			ckptReason:  `unknown backend "mystery"`,
		},
		{
			name: "unknown backend in session metadata, no checkpoint",
			damage: func(t *testing.T, dataDir, id string) {
				meta, _ := readRecord(t, dataDir, id)
				meta.Params.Backend = "mystery"
				writeRecord(t, dataDir, meta, nil)
			},
			sessionGone: true,
		},
		{
			name: "stale tmp file",
			damage: func(t *testing.T, dataDir, id string) {
				err := os.WriteFile(filepath.Join(dataDir, "sessions", id+".bck.tmp"), []byte("torn"), 0o644)
				if err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := t.TempDir()
			srvA, err := New(Config{DataDir: dataDir})
			if err != nil {
				t.Fatal(err)
			}
			tsA := httptest.NewServer(srvA.Handler())
			name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
			id := createSession(t, tsA.URL, map[string]any{"graph": name, "eps": 0.1, "seed": 3})
			do(t, "POST", tsA.URL+"/sessions/"+id+"/run", nil)
			if status := waitIdle(t, tsA.URL, id); status["converged"] != true {
				t.Fatalf("seed run did not converge: %v", status)
			}
			if err := srvA.Drain(t.Context()); err != nil {
				t.Fatal(err)
			}
			tsA.Close()

			tc.damage(t, dataDir, id)

			var logMu sync.Mutex
			var logged []string
			srvB, err := New(Config{DataDir: dataDir, Logf: func(format string, args ...any) {
				logMu.Lock()
				defer logMu.Unlock()
				logged = append(logged, fmt.Sprintf(format, args...))
			}})
			if err != nil {
				t.Fatalf("startup over damaged data dir failed: %v", err)
			}
			tsB := httptest.NewServer(srvB.Handler())
			defer tsB.Close()

			if q := quarantineEntries(t, dataDir); len(q) == 0 {
				t.Fatal("damage was not quarantined")
			}
			if tc.ckptReason != "" {
				var got []string
				logMu.Lock()
				for _, line := range logged {
					if strings.HasPrefix(line, "quarantined ") && strings.Contains(line, id+".bck ->") {
						got = append(got, line)
					}
				}
				logMu.Unlock()
				if len(got) != 1 || !strings.HasSuffix(got[0], ": "+tc.ckptReason) {
					t.Fatalf("checkpoint quarantine log %q, want one line ending in %q", got, tc.ckptReason)
				}
			}
			code, status := do(t, "GET", tsB.URL+"/sessions/"+id, nil)
			switch {
			case tc.sessionGone:
				if code != http.StatusNotFound {
					t.Fatalf("quarantined session still served: status %d, %v", code, status)
				}
			case tc.sessionFresh:
				if code != http.StatusOK {
					t.Fatalf("session not served fresh: status %d", code)
				}
				if tau := status["snapshot"].(map[string]any)["tau"].(float64); tau != 0 {
					t.Fatalf("damaged-checkpoint session kept tau %v, want 0", tau)
				}
				if deg, _ := status["degraded"].(string); !strings.Contains(deg, "quarantined") {
					t.Fatalf("fresh-served session does not surface the quarantine: %v", status)
				}
			default:
				if code != http.StatusOK {
					t.Fatalf("healthy session lost: status %d", code)
				}
			}
			// Whatever happened, the daemon works: a fresh run converges.
			fresh := createSession(t, tsB.URL, map[string]any{"graph": name, "eps": 0.2, "seed": 8})
			do(t, "POST", tsB.URL+"/sessions/"+fresh+"/run", nil)
			if status := waitIdle(t, tsB.URL, fresh); status["converged"] != true {
				t.Fatalf("post-recovery run did not converge: %v", status)
			}
		})
	}
}

// TestCrashPointLeavesTmpQuarantined drives the injectable crash hook: die
// after the durable tmp write, before the rename. The write must fail with
// the simulated crash, the target record must be untouched — the old one,
// byte for byte, never a mix — and the restart must quarantine the
// orphaned tmp file.
func TestCrashPointLeavesTmpQuarantined(t *testing.T) {
	dataDir := t.TempDir()
	srvA, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
	id := createSession(t, tsA.URL, map[string]any{"graph": name, "eps": 0.1, "seed": 4})
	do(t, "POST", tsA.URL+"/sessions/"+id+"/run", nil)
	waitIdle(t, tsA.URL, id)
	tsA.Close()
	ckptPath := filepath.Join(dataDir, "sessions", id+".bck")
	committed, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}

	// Arm the crash for the next record write of this session.
	crashBeforeRename = func(path string) bool {
		return filepath.Base(path) == id+".bck"
	}
	defer func() { crashBeforeRename = nil }()
	err = srvA.Drain(context.Background())
	crashBeforeRename = nil
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("drain did not surface the simulated crash: %v", err)
	}

	tmpPath := filepath.Join(dataDir, "sessions", id+".bck.tmp")
	if _, err := os.Stat(tmpPath); err != nil {
		t.Fatalf("simulated crash left no tmp file: %v", err)
	}
	// The run's completion already wrote the record (finish), so the target
	// file holds that earlier, complete record — a crash between tmp write
	// and rename never tears the target.
	if now, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(now, committed) {
		t.Fatalf("crash before rename changed the committed record (%v)", err)
	}

	srvB, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatal("stale tmp file survived the recovery scan")
	}
	found := false
	for _, q := range quarantineEntries(t, dataDir) {
		if strings.HasPrefix(q, id+".bck.tmp") {
			found = true
		}
	}
	if !found {
		t.Fatal("stale tmp file was not quarantined")
	}
	// The committed checkpoint still restores: the session keeps its tau.
	if tau := sessionTau(t, tsB.URL, id); tau <= 0 {
		t.Fatalf("session lost its committed checkpoint: tau %v", tau)
	}
}

// TestWatchdogInterruptsRun pins the run watchdog: an over-budget run is
// cancelled server-side, reported interrupted (not failed), and the
// session resumes with its samples. Pinned by the CI race job: the
// watchdog cancellation races the sampling loop and the progress hook.
func TestWatchdogInterruptsRun(t *testing.T) {
	_, ts := newTestServer(t, Config{RunTimeout: 60 * time.Millisecond})
	name := uploadGraph(t, ts.URL, "g", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.0005, "seed": 6})

	do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	status := waitIdle(t, ts.URL, id)
	if status["interrupted"] != true {
		t.Fatalf("watchdog did not interrupt the run: %v", status)
	}
	if reason, _ := status["interrupt_reason"].(string); !strings.Contains(reason, "watchdog") {
		t.Fatalf("interrupt reason does not name the watchdog: %v", status)
	}
	if status["error"] != nil {
		t.Fatalf("watchdog expiry reported as failure: %v", status)
	}
	tau0 := status["snapshot"].(map[string]any)["tau"].(float64)
	if tau0 <= 0 {
		t.Fatalf("interrupted session lost its samples: tau %v", tau0)
	}
	// Resumable: the next run picks up where the watchdog stopped it.
	if code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
		t.Fatal("resume after watchdog not accepted")
	}
	status = waitIdle(t, ts.URL, id)
	if tau := status["snapshot"].(map[string]any)["tau"].(float64); tau <= tau0 {
		t.Fatalf("resumed run did not extend samples: %v -> %v", tau0, tau)
	}
}

// TestDistCheckpointRestoresUniform restores a distributed checkpoint of a
// session that names top_k: it comes back as the dist session it was —
// same backend, same params, no degraded note — under the uniform rule it
// recorded, for which top_k only ranks. A checkpoint that is not this
// session's (another backend's) is refused, not run under its label.
func TestDistCheckpointRestoresUniform(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g", testGraphBytes(t))
	srv.mu.Lock()
	g := srv.graphs[name]
	srv.mu.Unlock()

	const eps = 0.005
	var mu sync.Mutex
	var payload []byte
	_, err := betweenness.Estimate(context.Background(), g.workload(),
		betweenness.WithEpsilon(eps), betweenness.WithSeed(1), betweenness.WithThreads(1),
		betweenness.WithExecutor(betweenness.LocalMPI(2)),
		betweenness.WithCheckpointEvery(time.Nanosecond, func(p []byte) {
			mu.Lock()
			if payload == nil {
				payload = append([]byte(nil), p...)
			}
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("distributed run emitted no checkpoint; tighten eps")
	}
	p := sessionParams{Graph: name, Eps: eps, Delta: 0.1, Seed: 1, Threads: 1, Backend: "dist", Procs: 2, TopK: 3}
	s, err := srv.buildSession("restored", g, p, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, tau := s.params, s.est.Snapshot().Tau; got != p || s.degraded != "" || tau == 0 {
		t.Fatalf("restored dist session params %+v, degraded %q, tau %d; want it back as created, samples held",
			got, s.degraded, tau)
	}
	res, err := s.est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "local-mpi" || res.Distributed == nil || res.Distributed.RanksStarted != 2 {
		t.Fatalf("restored dist session ran on %q (%+v)", res.Backend, res.Distributed)
	}
	if !res.Converged || res.Lower != nil || res.AchievedEps > eps || len(res.Top) != 3 {
		t.Fatalf("restored dist session: converged=%v bounds=%v achieved eps %g (target %g) top %v",
			res.Converged, res.Lower != nil, res.AchievedEps, eps, res.Top)
	}

	for _, other := range []sessionParams{
		{Graph: name, Eps: eps, Delta: 0.1, Seed: 1, Backend: "seq"},
		{Graph: name, Eps: eps, Delta: 0.1, Seed: 1, Backend: "shm", Threads: 1},
	} {
		if _, err := srv.buildSession("other", g, other, payload); err == nil || !strings.Contains(err.Error(), "local-mpi") {
			t.Errorf("a dist checkpoint under %s metadata: err %v, want a refusal naming the backends", other.Backend, err)
		}
	}

	// Its params carry top_k, which now names the certified rule: its
	// uniform result must not be cached where a new certified session with
	// the same params would be served it.
	srv.mu.Lock()
	srv.sessions[s.id] = s
	srv.mu.Unlock()
	do(t, "POST", ts.URL+"/sessions/"+s.id+"/run", nil)
	if status := waitIdle(t, ts.URL, s.id); status["converged"] != true {
		t.Fatalf("restored uniform top_k session did not converge: %v", status)
	}
	fresh := createSession(t, ts.URL, map[string]any{"graph": name, "eps": eps, "delta": 0.1, "seed": 1,
		"threads": 1, "backend": "dist", "procs": 2, "top_k": 3})
	do(t, "POST", ts.URL+"/sessions/"+fresh+"/run", nil)
	if status := waitIdle(t, ts.URL, fresh); status["cached"] == true {
		t.Fatalf("certified session served the restored uniform session's result from the cache: %v", status)
	}
	if _, res := do(t, "GET", ts.URL+"/sessions/"+fresh+"/result", nil); res["separated"] == nil {
		t.Fatalf("certified dist session result has no separation: %v", res)
	}
}

// TestOneThreadShmSessionRestores: an shm session that binds one thread —
// asked for, or the default of one per core on a one-CPU host — and a seq
// session, which is shm at one thread, restore after a restart as the
// session they were: samples held, status backend as typed, not
// quarantined as another backend's.
func TestOneThreadShmSessionRestores(t *testing.T) {
	for _, tc := range []struct {
		name, backend string
		threads       int
	}{{"threads1", "shm", 1}, {"threads0", "shm", 0}, {"seq", "seq", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			dataDir := t.TempDir()
			srvA, tsA := newTestServer(t, Config{DataDir: dataDir})
			name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
			id := createSession(t, tsA.URL, map[string]any{"graph": name, "eps": 0.01, "seed": 1,
				"backend": tc.backend, "threads": tc.threads, "max_samples": 500})
			do(t, "POST", tsA.URL+"/sessions/"+id+"/run", nil)
			waitIdle(t, tsA.URL, id)
			if err := srvA.Drain(t.Context()); err != nil {
				t.Fatal(err)
			}
			tsA.Close()

			_, tsB := newTestServer(t, Config{DataDir: dataDir})
			if q := quarantineEntries(t, dataDir); len(q) != 0 {
				t.Fatalf("one-thread shm session quarantined: %v", q)
			}
			code, status := do(t, "GET", tsB.URL+"/sessions/"+id, nil)
			if code != http.StatusOK || status["backend"] != tc.backend || status["degraded"] != nil {
				t.Fatalf("after restart: status %d, %v; want the %s session back", code, status, tc.backend)
			}
			if tau := sessionTau(t, tsB.URL, id); tau != 500 {
				t.Fatalf("restored tau %v, want the budget stop at 500", tau)
			}
		})
	}
}

// TestPagination covers the ?offset=&limit= windows on both estimate
// surfaces.
func TestPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.1, "seed": 2})
	do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	waitIdle(t, ts.URL, id)

	// Unpaginated result stays backward compatible: full vector, no window
	// metadata.
	_, full := do(t, "GET", ts.URL+"/sessions/"+id+"/result?estimates=1", nil)
	n := len(full["estimates"].([]any))
	if n == 0 {
		t.Fatal("no estimates")
	}
	if _, windowed := full["total"]; windowed {
		t.Fatal("unpaginated result carries window metadata")
	}

	code, page := do(t, "GET", ts.URL+"/sessions/"+id+"/result?estimates=1&offset=5&limit=7", nil)
	if code != http.StatusOK {
		t.Fatalf("paged result: status %d", code)
	}
	if got := len(page["estimates"].([]any)); got != 7 {
		t.Fatalf("page length = %d, want 7", got)
	}
	if page["total"].(float64) != float64(n) || page["offset"].(float64) != 5 {
		t.Fatalf("window metadata wrong: %v", page)
	}
	if page["estimates"].([]any)[0] != full["estimates"].([]any)[5] {
		t.Fatal("page content does not match the full vector")
	}

	// The live estimates endpoint.
	code, live := do(t, "GET", ts.URL+"/sessions/"+id+"/estimates?offset="+fmt.Sprint(n-3)+"&limit=100", nil)
	if code != http.StatusOK {
		t.Fatalf("estimates: status %d", code)
	}
	if got := len(live["estimates"].([]any)); got != 3 {
		t.Fatalf("tail page length = %d, want 3 (clamped)", got)
	}
	if live["total"].(float64) != float64(n) {
		t.Fatalf("estimates total = %v, want %d", live["total"], n)
	}

	// Out-of-range and garbage windows.
	if code, resp := do(t, "GET", ts.URL+"/sessions/"+id+"/estimates?offset=999999", nil); code != http.StatusOK || len(resp["estimates"].([]any)) != 0 {
		t.Fatalf("past-the-end offset: status %d, %v", code, resp)
	}
	if code, _ := do(t, "GET", ts.URL+"/sessions/"+id+"/estimates?offset=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative offset accepted: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/sessions/"+id+"/result?estimates=1&limit=x", nil); code != http.StatusBadRequest {
		t.Errorf("garbage limit accepted: %d", code)
	}
}

// TestHealthAndReadiness: liveness is unconditional; readiness drops the
// moment a drain begins.
func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code, _ := do(t, "GET", ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, "GET", ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200 (liveness is unconditional)", code)
	}
}

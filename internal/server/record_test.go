package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// legacyDir is a data dir written by the daemon before session records
// (sessions/<id>.json beside a bare BCSE sessions/<id>.bck, plus the
// result cache's cache/*.bcr spill): graph g, and
//
//	s1 seq, converged, checkpointed
//	s2 dist, budget-stopped, checkpointed
//	s3 seq, no samples
//	s4 dist, converged, checkpointed, its metadata naming the removed alg1
//	   backend
//	s5 a dist session the rank-death ladder rebuilt onto shm, no samples
const legacyDir = "testdata/legacy"

// legacySessions is what the daemon that wrote legacyDir loaded from it.
var legacySessions = []struct {
	id, backend string
	tau         float64
	converged   bool
	degraded    string
}{
	{"s1", "seq", 300, true, ""},
	{"s2", "dist", 4078, false, ""},
	{"s3", "seq", 0, false, ""},
	{"s4", "dist", 1113, true, ""},
	{"s5", "shm", 0, false, "degraded from the distributed backend to shared-memory"},
}

// checkLegacySessions asserts that a daemon serves legacyDir's sessions as
// the daemon that wrote it did.
func checkLegacySessions(t *testing.T, base string) {
	t.Helper()
	for _, want := range legacySessions {
		code, st := do(t, "GET", base+"/sessions/"+want.id, nil)
		if code != http.StatusOK {
			t.Fatalf("session %s: status %d", want.id, code)
		}
		degraded, _ := st["degraded"].(string)
		tau := st["snapshot"].(map[string]any)["tau"].(float64)
		if st["backend"] != want.backend || tau != want.tau || st["converged"] != want.converged || degraded != want.degraded {
			t.Errorf("session %s: backend %v, tau %v, converged %v, degraded %q; want %+v",
				want.id, st["backend"], tau, st["converged"], degraded, want)
		}
	}
}

// dirContents maps every file under dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// countWrites arms the crash hook as a counter of every writeAtomic call,
// per file name, until the test ends; the name "" reads the total. Callers
// stop every server goroutine that may write before the test returns.
func countWrites(t *testing.T) func(name string) int {
	var mu sync.Mutex
	writes := map[string]int{}
	crashBeforeRename = func(path string) bool {
		mu.Lock()
		writes[filepath.Base(path)]++
		mu.Unlock()
		return false
	}
	t.Cleanup(func() { crashBeforeRename = nil })
	return func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		if name == "" {
			n := 0
			for _, c := range writes {
				n += c
			}
			return n
		}
		return writes[name]
	}
}

// TestLegacyDataDirMigrates starts on a data dir of the three-file layout:
// each session becomes one record and loads as it did before, the cache
// spill goes, and the converged answers come back through their sessions.
// A second start writes nothing, and a crash image taken between a
// record's write and its .json's removal loads to the same sessions.
func TestLegacyDataDirMigrates(t *testing.T) {
	dataDir := copyDataDir(t, legacyDir)
	srvA, tsA := newTestServer(t, Config{DataDir: dataDir})
	checkLegacySessions(t, tsA.URL)
	if q := quarantineEntries(t, dataDir); len(q) != 0 {
		t.Fatalf("migration quarantined %v", q)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "cache")); !os.IsNotExist(err) {
		t.Fatalf("obsolete cache dir survived the start: %v", err)
	}
	for _, want := range legacySessions {
		if _, err := os.Stat(filepath.Join(dataDir, "sessions", want.id+".json")); !os.IsNotExist(err) {
			t.Fatalf("session %s kept its legacy metadata file: %v", want.id, err)
		}
		meta, state := readRecord(t, dataDir, want.id)
		if meta.ID != want.id || (state != nil) != (want.tau > 0) {
			t.Fatalf("session %s migrated to record %+v with %d state bytes", want.id, meta, len(state))
		}
	}
	migrated := copyDataDir(t, dataDir)

	// No migrated record claims a converged state: the old layout could
	// pair a converged flag with a later capture, so the start did not run
	// any of them. Running s1 returns its converged answer without
	// sampling, and the answer is then a cache hit for an identical new
	// session.
	for _, want := range legacySessions {
		if meta, _ := readRecord(t, dataDir, want.id); meta.StateConverged {
			t.Fatalf("migrated session %s claims a converged state", want.id)
		}
	}
	do(t, "POST", tsA.URL+"/sessions/s1/run", nil)
	if status := waitIdle(t, tsA.URL, "s1"); status["converged"] != true || status["cached"] != false ||
		status["snapshot"].(map[string]any)["tau"].(float64) != legacySessions[0].tau {
		t.Fatalf("legacy converged session s1 run again: %v", status)
	}
	repeat := createSession(t, tsA.URL, map[string]any{"graph": "g", "eps": 0.1, "delta": 0.1, "seed": 3})
	do(t, "POST", tsA.URL+"/sessions/"+repeat+"/run", nil)
	if status := waitIdle(t, tsA.URL, repeat); status["cached"] != true {
		t.Fatalf("legacy converged session did not re-seed the cache: %v", status)
	}
	srvA.cancelRuns()
	srvA.wg.Wait()

	before := dirContents(t, dataDir)
	writes := countWrites(t)
	srvB, tsB := newTestServer(t, Config{DataDir: dataDir})
	checkLegacySessions(t, tsB.URL)
	srvB.cancelRuns()
	srvB.wg.Wait()
	if n := writes(""); n != 0 {
		t.Errorf("second start made %d writes", n)
	}
	after := dirContents(t, dataDir)
	for path, data := range before {
		if after[path] != data {
			t.Errorf("second start changed %s", path)
		}
	}
	if len(after) != len(before) {
		t.Errorf("second start turned %d files into %d", len(before), len(after))
	}

	// Crash mid-migration: s1, s3 and s4 were rewritten as records and kept
	// their .json; s2 and s5 are still as the old build left them.
	crashDir := copyDataDir(t, legacyDir)
	for _, id := range []string{"s1", "s3", "s4"} {
		record, err := os.ReadFile(filepath.Join(migrated, "sessions", id+".bck"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "sessions", id+".bck"), record, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, tsC := newTestServer(t, Config{DataDir: crashDir})
	checkLegacySessions(t, tsC.URL)
	if q := quarantineEntries(t, crashDir); len(q) != 0 {
		t.Fatalf("resumed migration quarantined %v", q)
	}
	left, _ := filepath.Glob(filepath.Join(crashDir, "sessions", "*.json"))
	if len(left) != 0 {
		t.Fatalf("resumed migration left %v", left)
	}

	// Damage in the old layout is quarantined as before: zero-byte
	// metadata loses its session and the checkpoint beside it, nothing else.
	damaged := copyDataDir(t, legacyDir)
	if err := os.WriteFile(filepath.Join(damaged, "sessions", "s1.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, tsD := newTestServer(t, Config{DataDir: damaged})
	if code, _ := do(t, "GET", tsD.URL+"/sessions/s1", nil); code != http.StatusNotFound {
		t.Fatalf("session with zero-byte metadata: status %d, want 404", code)
	}
	if q := quarantineEntries(t, damaged); len(q) != 2 {
		t.Fatalf("quarantine holds %v, want s1.json and s1.bck", q)
	}
	if code, _ := do(t, "GET", tsD.URL+"/sessions/s2", nil); code != http.StatusOK {
		t.Fatalf("undamaged session s2: status %d", code)
	}
}

// TestOutcomeFlagsSurviveCrash: the record written at the end of an
// operation carries the operation's outcome, so a crash image taken right
// after a converged run — no drain — restarts with the session converged at
// its tau and its result served, and a cache-hit completion restarts
// cached.
func TestOutcomeFlagsSurviveCrash(t *testing.T) {
	dataDir := t.TempDir()
	srvA, tsA := newTestServer(t, Config{DataDir: dataDir})
	name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
	params := map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 3}
	id := createSession(t, tsA.URL, params)
	do(t, "POST", tsA.URL+"/sessions/"+id+"/run", nil)
	status := waitIdle(t, tsA.URL, id)
	tau := status["snapshot"].(map[string]any)["tau"].(float64)
	if status["converged"] != true || tau == 0 {
		t.Fatalf("run did not converge: %v", status)
	}
	hit := createSession(t, tsA.URL, params)
	do(t, "POST", tsA.URL+"/sessions/"+hit+"/run", nil)
	if status := waitIdle(t, tsA.URL, hit); status["cached"] != true {
		t.Fatalf("identical query not cache-served: %v", status)
	}
	crashDir := copyDataDir(t, dataDir)
	srvA.cancelRuns()
	srvA.wg.Wait()

	_, tsB := newTestServer(t, Config{DataDir: crashDir})
	_, st := do(t, "GET", tsB.URL+"/sessions/"+id, nil)
	if st["converged"] != true || st["cached"] != false || st["snapshot"].(map[string]any)["tau"].(float64) != tau {
		t.Fatalf("converged session after the crash: %v; want converged at tau %v", st, tau)
	}
	if code, res := do(t, "GET", tsB.URL+"/sessions/"+id+"/result", nil); code != http.StatusOK || res["tau"].(float64) != tau {
		t.Fatalf("converged session's result after the crash: status %d, %v", code, res)
	}
	if _, st := do(t, "GET", tsB.URL+"/sessions/"+hit, nil); st["converged"] != true || st["cached"] != true {
		t.Fatalf("cache-hit session after the crash: %v; want converged and cached", st)
	}
}

// TestCacheHitRestartDoesNotSample: a session interrupted with partial
// samples and then completed from the cache reports converged and cached,
// but its record does not claim a converged state, so a restart from a
// crash image serves it at the tau it had without sampling, while the
// session whose own state converged re-seeds the cache.
func TestCacheHitRestartDoesNotSample(t *testing.T) {
	dataDir := t.TempDir()
	srvA, tsA := newTestServer(t, Config{DataDir: dataDir})
	name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
	params := map[string]any{"graph": name, "eps": 0.005, "delta": 0.1, "seed": 3}
	partial := createSession(t, tsA.URL, params)
	do(t, "POST", tsA.URL+"/sessions/"+partial+"/run", nil)
	deadline := time.Now().Add(30 * time.Second)
	for sessionTau(t, tsA.URL, partial) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	srvA.mu.Lock()
	srvA.sessions[partial].cancel() // as a DELETE would, keeping the session
	srvA.mu.Unlock()
	status := waitIdle(t, tsA.URL, partial)
	tau := status["snapshot"].(map[string]any)["tau"].(float64)
	if status["interrupted"] != true || status["converged"] == true {
		t.Fatalf("cancelled session: %v; want interrupted with partial samples", status)
	}
	full := createSession(t, tsA.URL, params)
	do(t, "POST", tsA.URL+"/sessions/"+full+"/run", nil)
	if status := waitIdle(t, tsA.URL, full); status["converged"] != true {
		t.Fatalf("run did not converge: %v", status)
	}
	// The cache is consulted before admission, so the cancelled session
	// still completes.
	do(t, "POST", tsA.URL+"/sessions/"+partial+"/run", nil)
	if status := waitIdle(t, tsA.URL, partial); status["cached"] != true || sessionTau(t, tsA.URL, partial) != tau {
		t.Fatalf("partial session not served from the cache at tau %v: %v", tau, status)
	}
	if meta, state := readRecord(t, dataDir, partial); !meta.Converged || !meta.Cached || meta.StateConverged || state == nil {
		t.Fatalf("cache-hit record %+v with %d state bytes; want converged, cached, partial state", meta, len(state))
	}
	crashDir := copyDataDir(t, dataDir)
	srvA.cancelRuns()
	srvA.wg.Wait()

	srvB, tsB := newTestServer(t, Config{DataDir: crashDir})
	_, st := do(t, "GET", tsB.URL+"/sessions/"+partial, nil)
	if st["converged"] != true || st["cached"] != true || st["snapshot"].(map[string]any)["tau"].(float64) != tau {
		t.Fatalf("cache-hit session after the crash: %v; want converged and cached at tau %v", st, tau)
	}
	if n, _, _ := srvB.cache.stats(); n != 1 {
		t.Fatalf("restart cached %d results, want the converged session's one", n)
	}
}

// TestOneRecordWritePerEvent counts writeAtomic calls under sessions/ and
// everywhere else in the data dir: creating a session and running it to
// convergence is two (creation, end of run), and one in-run capture is one.
func TestOneRecordWritePerEvent(t *testing.T) {
	writes := countWrites(t)
	dataDir := t.TempDir()
	// The loop never ticks; the capture below is requested by hand.
	srv, ts := newTestServer(t, Config{DataDir: dataDir, CheckpointInterval: time.Hour})
	defer func() {
		srv.cancelRuns()
		srv.wg.Wait()
	}()
	name := uploadGraph(t, ts.URL, "g", testGraphBytes(t))
	start := writes("")
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.1, "seed": 3})
	do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	if status := waitIdle(t, ts.URL, id); status["converged"] != true {
		t.Fatalf("run did not converge: %v", status)
	}
	if n := writes("") - start; n > 2 {
		t.Errorf("create and one converged run: %d writes, want at most 2", n)
	}

	long := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.0005, "seed": 1})
	do(t, "POST", ts.URL+"/sessions/"+long+"/run", nil)
	deadline := time.Now().Add(30 * time.Second)
	for sessionTau(t, ts.URL, long) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long session never sampled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := writes("")
	srv.mu.Lock()
	s := srv.sessions[long]
	srv.mu.Unlock()
	s.estimator().RequestCheckpoint()
	for {
		if _, state := readRecord(t, dataDir, long); state != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the requested capture never reached the record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for any write that follows it
	n := writes("")
	if _, status := do(t, "GET", ts.URL+"/sessions/"+long, nil); status["state"] != stateRunning {
		t.Fatalf("long session stopped during the count: %v", status)
	}
	if n-before != 1 {
		t.Errorf("one in-run capture: %d writes, want 1", n-before)
	}
}

// FuzzDecodeRecord: for any bytes the record decoder returns an error or a
// record — never a panic, never a state that is not the record's tail — and
// a record it returns re-encodes to one that decodes the same.
func FuzzDecodeRecord(f *testing.F) {
	head, err := encodeRecordHead(sessionMeta{ID: "s1", Params: sessionParams{Graph: "g", Eps: 0.1, Delta: 0.1, Seed: 3, Backend: "seq"}})
	if err != nil {
		f.Fatal(err)
	}
	bcse, err := os.ReadFile(filepath.Join(legacyDir, "sessions", "s1.bck"))
	if err != nil {
		f.Fatal(err)
	}
	withState := append(append([]byte(nil), head...), bcse...)
	f.Add(head)
	f.Add(withState)
	f.Add(withState[:len(withState)/2])
	f.Add(head[:len(head)-2]) // cut inside the section's CRC
	flipped := append([]byte(nil), withState...)
	flipped[recordHeaderLen] ^= 1
	f.Add(flipped)
	dataDir := copyDataDir(f, legacyDir)
	srv, err := New(Config{DataDir: dataDir})
	if err != nil {
		f.Fatal(err)
	}
	srv.cancelRuns()
	srv.wg.Wait()
	records, _ := filepath.Glob(filepath.Join(dataDir, "sessions", "*.bck"))
	sort.Strings(records)
	if len(records) != len(legacySessions) {
		f.Fatalf("migrated legacy dir holds %d records", len(records))
	}
	for _, path := range records {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, state, err := decodeRecord(data)
		if err != nil {
			return
		}
		if len(state) > 0 && !bytes.HasSuffix(data, state) {
			t.Fatalf("state of %d bytes is not the record's tail", len(state))
		}
		head, err := encodeRecordHead(meta)
		if err != nil {
			return // a section that re-encodes past the cap
		}
		again, againState, err := decodeRecord(append(head, state...))
		if err != nil || again != meta || !bytes.Equal(againState, state) {
			t.Fatalf("re-encoded record decodes to %+v, %d state bytes, %v; want %+v, %d", again, len(againState), err, meta, len(state))
		}
	})
}

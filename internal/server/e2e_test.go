package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestEndToEndCheckpointRestart is the acceptance scenario for the
// daemon: upload a graph, drive two concurrent sessions, drain mid-run
// (the SIGTERM path — the signal wiring itself is exercised against the
// real binary by scripts/server_smoke.sh), restart on the same data
// directory, confirm the sessions resume with their samples intact, run
// them to convergence, refine one to a tighter epsilon without a sample
// reset, and see a repeated identical query served from the result cache.
func TestEndToEndCheckpointRestart(t *testing.T) {
	dataDir := t.TempDir()

	srvA, err := New(Config{DataDir: dataDir, MaxConcurrentRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())

	name := uploadGraph(t, tsA.URL, "web", testGraphBytes(t))

	// Two concurrent sessions with a target tight enough that the drain
	// lands mid-run. MaxSamples is an escape hatch, far above what the
	// test needs.
	mk := func(seed int) string {
		return createSession(t, tsA.URL, map[string]any{
			"graph": name, "eps": 0.002, "delta": 0.1, "seed": seed,
		})
	}
	// A certified top-k session (seq backend, top_k) is an ordinary
	// resumable session: stop it on a sample budget between two stopping
	// checks, and let the drain below checkpoint it with the others.
	topkParams := map[string]any{"graph": name, "backend": "seq", "top_k": 3, "eps": 0.01, "seed": 3}
	topkParams["max_samples"] = 1500
	topk := createSession(t, tsA.URL, topkParams)
	do(t, "POST", tsA.URL+"/sessions/"+topk+"/run", nil)
	if status := waitIdle(t, tsA.URL, topk); status["converged"] == true {
		t.Fatalf("budgeted top-k session converged: %v", status)
	}

	s1, s2 := mk(1), mk(2)
	for _, id := range []string{s1, s2} {
		if code, _ := do(t, "POST", tsA.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
			t.Fatalf("run %s not accepted", id)
		}
	}

	// Wait until both have sampled a meaningful amount (the progress hook
	// keeps the snapshot fresh per epoch), then pull the plug.
	tauAt := func(base, id string) float64 {
		code, status := do(t, "GET", base+"/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		return status["snapshot"].(map[string]any)["tau"].(float64)
	}
	deadline := time.Now().Add(30 * time.Second)
	for tauAt(tsA.URL, s1) < 500 || tauAt(tsA.URL, s2) < 500 {
		if time.Now().After(deadline) {
			t.Fatal("sessions never accumulated samples")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained1, drained2 := tauAt(tsA.URL, s1), tauAt(tsA.URL, s2)
	if drained1 == 0 || drained2 == 0 {
		t.Fatalf("drained sessions report zero samples: %v, %v", drained1, drained2)
	}
	for _, id := range []string{s1, s2} {
		if _, err := os.Stat(filepath.Join(dataDir, "sessions", id+".bck")); err != nil {
			t.Fatalf("no checkpoint for %s after drain: %v", id, err)
		}
	}
	tsA.Close()

	// Restart on the same data directory.
	srvB, err := New(Config{DataDir: dataDir, MaxConcurrentRuns: 2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	if code, _ := do(t, "GET", tsB.URL+"/graphs/"+name, nil); code != http.StatusOK {
		t.Fatalf("graph %s not rehydrated", name)
	}

	// The restored sessions hold their checkpointed samples before any new
	// run — that is the "resumes instead of resampling" contract. The seq
	// backend restores bit-identically, so tau matches exactly.
	if got := tauAt(tsB.URL, s1); got != drained1 {
		t.Fatalf("session %s restored tau = %v, want %v", s1, got, drained1)
	}
	if got := tauAt(tsB.URL, s2); got != drained2 {
		t.Fatalf("session %s restored tau = %v, want %v", s2, got, drained2)
	}

	// The top-k session kept its samples, resumes under the certified rule
	// (k comes back from the session metadata, not the checkpoint), and
	// ends exactly where a never-interrupted twin on a fresh daemon ends.
	if got := tauAt(tsB.URL, topk); got != 1500 {
		t.Fatalf("top-k session restored tau = %v, want 1500", got)
	}
	body, _ := json.Marshal(map[string]any{"max_samples": 1 << 30})
	if code, resp := do(t, "POST", tsB.URL+"/sessions/"+topk+"/refine", body); code != http.StatusAccepted {
		t.Fatalf("top-k resume: status %d, resp %v", code, resp)
	}
	if status := waitIdle(t, tsB.URL, topk); status["converged"] != true {
		t.Fatalf("resumed top-k session did not converge: %v", status)
	}
	_, tsTwin := newTestServer(t, Config{})
	delete(topkParams, "max_samples")
	topkParams["graph"] = uploadGraph(t, tsTwin.URL, "web", testGraphBytes(t))
	twin := createSession(t, tsTwin.URL, topkParams)
	do(t, "POST", tsTwin.URL+"/sessions/"+twin+"/run", nil)
	waitIdle(t, tsTwin.URL, twin)
	_, got := do(t, "GET", tsB.URL+"/sessions/"+topk+"/result?k=3", nil)
	_, want := do(t, "GET", tsTwin.URL+"/sessions/"+twin+"/result?k=3", nil)
	if _, ok := got["separated"].(bool); !ok {
		t.Fatalf("top-k result does not report separated: %v", got)
	}
	for _, field := range []string{"tau", "separated", "achieved_eps", "top"} {
		if !reflect.DeepEqual(got[field], want[field]) {
			t.Fatalf("resumed top-k %s = %v, uninterrupted twin has %v", field, got[field], want[field])
		}
	}

	// Resume both to convergence.
	for _, id := range []string{s1, s2} {
		if code, _ := do(t, "POST", tsB.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
			t.Fatalf("resume %s not accepted", id)
		}
	}
	for _, id := range []string{s1, s2} {
		if status := waitIdle(t, tsB.URL, id); status["converged"] != true {
			t.Fatalf("resumed session %s did not converge: %v", id, status)
		}
	}
	converged1 := tauAt(tsB.URL, s1)
	if converged1 <= drained1 {
		t.Fatalf("resumed run did not extend samples: %v -> %v", drained1, converged1)
	}

	// Refine tightens the target while keeping every accumulated sample.
	body, _ = json.Marshal(map[string]any{"eps": 0.0015})
	if code, resp := do(t, "POST", tsB.URL+"/sessions/"+s1+"/refine", body); code != http.StatusAccepted {
		t.Fatalf("refine: status %d, resp %v", code, resp)
	}
	status := waitIdle(t, tsB.URL, s1)
	if status["converged"] != true {
		t.Fatalf("refine did not converge: %v", status)
	}
	if status["eps"].(float64) != 0.0015 {
		t.Fatalf("refined eps = %v, want 0.0015", status["eps"])
	}
	refined1 := status["snapshot"].(map[string]any)["tau"].(float64)
	if refined1 <= converged1 {
		t.Fatalf("refine reset samples: tau %v -> %v", converged1, refined1)
	}

	// Repeated identical query: first fresh session fills the cache, the
	// second is served from it.
	params := map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 42}
	warm := createSession(t, tsB.URL, params)
	do(t, "POST", tsB.URL+"/sessions/"+warm+"/run", nil)
	if status := waitIdle(t, tsB.URL, warm); status["cached"] == true {
		t.Fatalf("first query unexpectedly cached")
	}
	repeat := createSession(t, tsB.URL, params)
	do(t, "POST", tsB.URL+"/sessions/"+repeat+"/run", nil)
	if status := waitIdle(t, tsB.URL, repeat); status["cached"] != true {
		t.Fatalf("repeated identical query not served from cache: %v", status)
	}
}

// TestRestartWithoutCheckpoint covers the degraded path: a session that
// never sampled is rehydrated fresh (same identity, zero samples) rather
// than lost.
func TestRestartWithoutCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	srvA, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	name := uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
	id := createSession(t, tsA.URL, map[string]any{"graph": name, "eps": 0.1})
	if err := srvA.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	srvB, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	code, status := do(t, "GET", tsB.URL+"/sessions/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("session not rehydrated: status %d", code)
	}
	if tau := status["snapshot"].(map[string]any)["tau"].(float64); tau != 0 {
		t.Fatalf("fresh rehydrated session has tau %v", tau)
	}
	if code, _ := do(t, "POST", tsB.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
		t.Fatal("run on rehydrated session not accepted")
	}
	if status := waitIdle(t, tsB.URL, id); status["converged"] != true {
		t.Fatalf("rehydrated session did not converge: %v", status)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/betweenness"
	"repro/graph"
)

// libraryRun is the reference a daemon session must equal: the direct
// library call on the graph exactly as the registry parses the upload,
// running its own diameter phase.
func libraryRun(t *testing.T, upload []byte, kind string, eps float64, seed uint64) *betweenness.Result {
	t.Helper()
	e, err := buildGraphEntry("ref", bytes.NewReader(upload), kind)
	if err != nil {
		t.Fatal(err)
	}
	res, err := betweenness.Estimate(context.Background(), e.workload(),
		betweenness.WithEpsilon(eps), betweenness.WithDelta(0.1), betweenness.WithSeed(seed),
		betweenness.WithExecutor(betweenness.Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sessionResult runs session id to completion and returns the stored result
// together with the vertex_diameter GET /result reports.
func sessionResult(t *testing.T, srv *Server, base, id string) (*betweenness.Result, int) {
	t.Helper()
	if code, resp := do(t, "POST", base+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
		t.Fatalf("run %s: status %d, resp %v", id, code, resp)
	}
	if status := waitIdle(t, base, id); status["converged"] != true {
		t.Fatalf("session %s did not converge: %v", id, status)
	}
	code, out := do(t, "GET", base+"/sessions/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result %s: status %d", id, code)
	}
	srv.mu.Lock()
	s := srv.sessions[id]
	srv.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result, int(out["vertex_diameter"].(float64))
}

func sameEstimates(t *testing.T, what string, got, want *betweenness.Result) {
	t.Helper()
	if got.Tau != want.Tau || got.VertexDiameter != want.VertexDiameter {
		t.Fatalf("%s: tau %d vd %d, library tau %d vd %d", what, got.Tau, got.VertexDiameter, want.Tau, want.VertexDiameter)
	}
	for v, b := range got.Estimates {
		if b != want.Estimates[v] {
			t.Fatalf("%s: vertex %d: session %v, library %v", what, v, b, want.Estimates[v])
		}
	}
}

func TestVertexDiameterResolvedOncePerGraph(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	upload := testGraphBytes(t)
	name := uploadGraph(t, ts.URL, "g", upload)

	srv.mu.Lock()
	entry := srv.graphs[name]
	srv.mu.Unlock()
	want := graph.VertexDiameter(entry.und.Load())

	// The first resolution is raced: session creation on this goroutine
	// against library estimates on the entry's workload (run under -race).
	// Whoever resolves first pays phase 1; everyone else reuses the bound.
	var wg sync.WaitGroup
	raced := make([]*betweenness.Result, 4)
	for i := range raced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raced[i], _ = betweenness.Estimate(context.Background(), entry.workload(),
				betweenness.WithEpsilon(0.05), betweenness.WithSeed(100+uint64(i)),
				betweenness.WithExecutor(betweenness.Sequential()))
		}()
	}
	first := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.05, "seed": 5})
	wg.Wait()
	paid := 0
	for i, res := range raced {
		if res == nil {
			t.Fatalf("racing estimate %d failed", i)
		}
		if res.VertexDiameter != want {
			t.Fatalf("racing estimate %d: vertex diameter %d, want %d", i, res.VertexDiameter, want)
		}
		if res.Timings.Diameter != 0 {
			paid++
		}
	}

	// Different seeds, so the second run is sampled rather than served from
	// the result cache.
	second := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.05, "seed": 6})
	for i, id := range []string{first, second} {
		seed := uint64(5 + i)
		res, reported := sessionResult(t, srv, ts.URL, id)
		if res.Timings.Diameter != 0 {
			paid++
			if i > 0 {
				t.Errorf("seed %d: a later session ran the diameter phase again (%v)", seed, res.Timings.Diameter)
			}
		}
		if reported != want {
			t.Errorf("seed %d: /result vertex_diameter = %d, want %d", seed, reported, want)
		}
		sameEstimates(t, "undirected session", res, libraryRun(t, upload, "", 0.05, seed))
	}
	if paid != 1 {
		t.Errorf("%d estimates ran the diameter phase, want exactly the first one", paid)
	}
}

func TestVertexDiameterMemoByKind(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	var arcs bytes.Buffer
	if err := graph.WriteArcList(&arcs, graph.RandomDigraph(200, 1400, 3)); err != nil {
		t.Fatal(err)
	}
	var weighted bytes.Buffer
	und, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(7, 8, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteWeightedEdgeList(&weighted, graph.RandomWeights(und, 9, 4)); err != nil {
		t.Fatal(err)
	}

	// Every kind's bound is a deterministic property of the graph, so the
	// first session resolves it and the second reuses it.
	for _, tc := range []struct {
		name, kind string
		upload     []byte
	}{
		{"dig", "directed", arcs.Bytes()},
		{"wgt", "weighted", weighted.Bytes()},
	} {
		code, resp := do(t, "POST", ts.URL+"/graphs?name="+tc.name+"&kind="+tc.kind, tc.upload)
		if code != http.StatusCreated {
			t.Fatalf("%s upload: status %d, resp %v", tc.kind, code, resp)
		}
		for i, seed := range []uint64{11, 12} {
			id := createSession(t, ts.URL, map[string]any{"graph": tc.name, "eps": 0.05, "seed": seed})
			res, reported := sessionResult(t, srv, ts.URL, id)
			want := libraryRun(t, tc.upload, tc.kind, 0.05, seed)
			sameEstimates(t, tc.kind+" session", res, want)
			if reported != want.VertexDiameter {
				t.Errorf("%s seed %d: /result vertex_diameter = %d, want %d", tc.kind, seed, reported, want.VertexDiameter)
			}
			if first := i == 0; first != (res.Timings.Diameter != 0) {
				t.Errorf("%s seed %d: diameter phase took %v in the session, first session %v", tc.kind, seed, res.Timings.Diameter, first)
			}
		}
	}
}

// The heap-to-mmap swap persistGraph makes must not cost the bound a
// session already resolved on the heap copy: the entry keeps that workload.
func TestVertexDiameterSurvivesMappedSwap(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	upload := testGraphBytes(t)
	entry, err := buildGraphEntry("g", bytes.NewReader(upload), "")
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.graphs[entry.name] = entry
	srv.mu.Unlock()
	heapRes, err := betweenness.Estimate(context.Background(), entry.workload(),
		betweenness.WithEpsilon(0.05), betweenness.WithSeed(3),
		betweenness.WithExecutor(betweenness.Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	if heapRes.Timings.Diameter == 0 {
		t.Fatal("the first estimate on the heap copy did not run the diameter phase")
	}
	if err := srv.persistGraph(entry); err != nil {
		t.Fatal(err)
	}
	if entry.mapped == nil {
		t.Fatal("persistGraph did not map the persisted graph")
	}
	id := createSession(t, ts.URL, map[string]any{"graph": entry.name, "eps": 0.05, "seed": 4})
	res, reported := sessionResult(t, srv, ts.URL, id)
	if res.Timings.Diameter != 0 || reported != heapRes.VertexDiameter {
		t.Errorf("after the swap: diameter phase %v, vertex_diameter %d; want 0 and %d",
			res.Timings.Diameter, reported, heapRes.VertexDiameter)
	}
}

// A checkpoint written before the memo moved into the workload comes from an
// estimator that resolved the diameter itself, and a daemon of that time
// passed the bound to every session through the since-removed
// WithVertexDiameter option. Either way the checkpoint must restore, resume,
// and still accept a refine: the restored identity is the checkpoint's.
func TestRestoreCheckpointFromBeforeMemo(t *testing.T) {
	dataDir := t.TempDir()
	upload := testGraphBytes(t)

	srvA, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	name := uploadGraph(t, tsA.URL, "g", upload)
	id := createSession(t, tsA.URL, map[string]any{"graph": name, "eps": 0.05, "seed": 9})
	if err := srvA.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	// The same session as the parent commit's daemon would have saved it:
	// budget-stopped after 400 samples, phase 1 run by the estimator.
	entry, err := buildGraphEntry("ref", bytes.NewReader(upload), "")
	if err != nil {
		t.Fatal(err)
	}
	old, err := betweenness.NewEstimator(entry.workload(),
		betweenness.WithEpsilon(0.05), betweenness.WithDelta(0.1), betweenness.WithSeed(9),
		betweenness.WithExecutor(betweenness.Sequential()), betweenness.WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := old.Run(context.Background()); err != nil || res.Converged || res.Tau != 400 {
		t.Fatalf("budgeted run: %+v, %v", res, err)
	}
	var ckpt bytes.Buffer
	if err := old.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	meta, _ := readRecord(t, dataDir, id)
	writeRecord(t, dataDir, meta, ckpt.Bytes())

	srvB, tsB := newTestServer(t, Config{DataDir: dataDir})
	if got := sessionTau(t, tsB.URL, id); got != 400 {
		t.Fatalf("restored tau = %v, want the checkpoint's 400", got)
	}
	res, _ := sessionResult(t, srvB, tsB.URL, id)
	// Resuming is sample-for-sample what never stopping would have been.
	sameEstimates(t, "restored session", res, libraryRun(t, upload, "", 0.05, 9))

	body, _ := json.Marshal(map[string]any{"eps": 0.03})
	if code, resp := do(t, "POST", tsB.URL+"/sessions/"+id+"/refine", body); code != http.StatusAccepted {
		t.Fatalf("refine: status %d, resp %v", code, resp)
	}
	status := waitIdle(t, tsB.URL, id)
	if status["converged"] != true || status["error"] != nil {
		t.Fatalf("refine after restore: %v", status)
	}
	if tau := status["snapshot"].(map[string]any)["tau"].(float64); tau <= float64(res.Tau) {
		t.Errorf("refine did not add samples: tau %v -> %v", res.Tau, tau)
	}
}

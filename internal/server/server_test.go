package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/graph"
)

// testGraphBytes renders a small connected RMAT graph as an edge list —
// the body of a typical upload.
func testGraphBytes(t *testing.T) []byte {
	t.Helper()
	g := graph.RMAT(graph.Graph500(8, 8, 17))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// do issues a request and decodes the JSON response into a map.
func do(t *testing.T, method, url string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(data) > 0 && data[0] == '{' {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, out
}

// waitIdle polls a session until its operation completes.
func waitIdle(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, status := do(t, "GET", base+"/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET session %s: status %d", id, code)
		}
		if status["state"] == stateIdle {
			return status
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s did not return to idle", id)
	return nil
}

func uploadGraph(t *testing.T, base, name string, body []byte) string {
	t.Helper()
	code, resp := do(t, "POST", base+"/graphs?name="+name, body)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d, resp %v", code, resp)
	}
	return resp["name"].(string)
}

func createSession(t *testing.T, base string, params map[string]any) string {
	t.Helper()
	body, _ := json.Marshal(params)
	code, resp := do(t, "POST", base+"/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d, resp %v", code, resp)
	}
	return resp["id"].(string)
}

func TestGraphUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	edges := testGraphBytes(t)

	code, resp := do(t, "POST", ts.URL+"/graphs?name=g1", edges)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d, resp %v", code, resp)
	}
	if resp["kind"] != "undirected" {
		t.Errorf("kind = %v, want undirected (sniffed)", resp["kind"])
	}
	if !strings.HasPrefix(resp["digest"].(string), "sha256:") {
		t.Errorf("digest = %v, want sha256-prefixed", resp["digest"])
	}

	// Idempotent re-upload of identical content: 200, same digest.
	code, resp2 := do(t, "POST", ts.URL+"/graphs?name=g1", edges)
	if code != http.StatusOK {
		t.Errorf("re-upload: status %d, want 200", code)
	}
	if resp2["digest"] != resp["digest"] {
		t.Errorf("re-upload digest changed: %v vs %v", resp2["digest"], resp["digest"])
	}

	// Name collision with different content: 409.
	other := graph.RMAT(graph.Graph500(7, 8, 99))
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, other); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs?name=g1", buf.Bytes()); code != http.StatusConflict {
		t.Errorf("conflicting upload: status %d, want 409", code)
	}

	// Anonymous upload gets a content-addressed name.
	code, resp3 := do(t, "POST", ts.URL+"/graphs", edges)
	if code != http.StatusCreated {
		t.Fatalf("anonymous upload: status %d", code)
	}
	if !strings.HasPrefix(resp3["name"].(string), "g-") {
		t.Errorf("anonymous name = %v, want g-<digest> prefix", resp3["name"])
	}

	// Unknown body: 400.
	if code, _ = do(t, "POST", ts.URL+"/graphs", []byte("!! not a graph")); code != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", code)
	}
}

func TestGraphDeleteRefcount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.2})

	// Deleting a referenced graph must refuse.
	if code, _ := do(t, "DELETE", ts.URL+"/graphs/"+name, nil); code != http.StatusConflict {
		t.Fatalf("delete referenced graph: status %d, want 409", code)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/sessions/"+id, nil); code != http.StatusOK {
		t.Fatalf("delete session: not ok")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/graphs/"+name, nil); code != http.StatusOK {
		t.Fatalf("delete unreferenced graph: not ok")
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/"+name, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph still visible")
	}
}

func TestSessionRunAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 7})

	code, resp := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	if code != http.StatusAccepted {
		t.Fatalf("run: status %d, resp %v", code, resp)
	}
	status := waitIdle(t, ts.URL, id)
	if status["converged"] != true {
		t.Fatalf("session did not converge: %v", status)
	}
	snap := status["snapshot"].(map[string]any)
	if snap["tau"].(float64) <= 0 {
		t.Errorf("snapshot tau = %v, want > 0", snap["tau"])
	}

	code, res := do(t, "GET", ts.URL+"/sessions/"+id+"/result?k=5", nil)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	top := res["top"].([]any)
	if len(top) != 5 {
		t.Errorf("top-k length = %d, want 5", len(top))
	}
	if res["converged"] != true {
		t.Errorf("result converged = %v", res["converged"])
	}
	if res["cached"] != false {
		t.Errorf("first run reported cached")
	}

	// Full estimates on request.
	_, res = do(t, "GET", ts.URL+"/sessions/"+id+"/result?estimates=1", nil)
	if _, ok := res["estimates"].([]any); !ok {
		t.Errorf("estimates missing with ?estimates=1")
	}
}

func TestResultBeforeRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name})
	if code, _ := do(t, "GET", ts.URL+"/sessions/"+id+"/result", nil); code != http.StatusConflict {
		t.Errorf("result before run: status %d, want 409", code)
	}
}

func TestSessionBusy(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 1})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	// A tight budget keeps the run alive long enough to observe busy.
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.005, "seed": 3})

	if code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
		t.Fatal("first run not accepted")
	}
	code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	if code != http.StatusConflict {
		t.Errorf("second run while busy: status %d, want 409", code)
	}
	waitIdle(t, ts.URL, id)
}

func TestResultCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	params := map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 11}

	first := createSession(t, ts.URL, params)
	do(t, "POST", ts.URL+"/sessions/"+first+"/run", nil)
	waitIdle(t, ts.URL, first)

	// An identical query on a new session must be served from the cache.
	second := createSession(t, ts.URL, params)
	do(t, "POST", ts.URL+"/sessions/"+second+"/run", nil)
	status := waitIdle(t, ts.URL, second)
	if status["cached"] != true {
		t.Fatalf("identical query not cache-served: %v", status)
	}

	_, resA := do(t, "GET", ts.URL+"/sessions/"+first+"/result?estimates=1", nil)
	_, resB := do(t, "GET", ts.URL+"/sessions/"+second+"/result?estimates=1", nil)
	a, b := resA["estimates"].([]any), resB["estimates"].([]any)
	if len(a) != len(b) {
		t.Fatalf("estimate lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached estimates differ at %d: %v vs %v", i, a[i], b[i])
		}
	}

	// A different seed must miss.
	third := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 12})
	do(t, "POST", ts.URL+"/sessions/"+third+"/run", nil)
	if status := waitIdle(t, ts.URL, third); status["cached"] == true {
		t.Fatalf("different seed served from cache")
	}

	// seq is shm at one thread: the two share one cache entry.
	shm := map[string]any{"graph": name, "eps": 0.1, "delta": 0.1, "seed": 11, "backend": "shm", "threads": 1}
	fourth := createSession(t, ts.URL, shm)
	do(t, "POST", ts.URL+"/sessions/"+fourth+"/run", nil)
	if status := waitIdle(t, ts.URL, fourth); status["cached"] != true || status["backend"] != "shm" {
		t.Fatalf("one-thread shm query not served the seq session's entry: %v", status)
	}
	_, resD := do(t, "GET", ts.URL+"/sessions/"+fourth+"/result?estimates=1", nil)
	if d := resD["estimates"].([]any); !reflect.DeepEqual(a, d) {
		t.Fatalf("one-thread shm session's estimates differ from the seq session's")
	}

	// top_k is identity on every backend: it selects the certified top-k
	// stopping rule.
	shm["top_k"] = 3
	fifth := createSession(t, ts.URL, shm)
	do(t, "POST", ts.URL+"/sessions/"+fifth+"/run", nil)
	if status := waitIdle(t, ts.URL, fifth); status["cached"] == true {
		t.Fatalf("certified top-k shm query served a uniform result from the cache: %v", status)
	}
	// The certified seq query shares the certified one-thread shm entry,
	// never the uniform one.
	params["top_k"] = 3
	sixth := createSession(t, ts.URL, params)
	do(t, "POST", ts.URL+"/sessions/"+sixth+"/run", nil)
	if status := waitIdle(t, ts.URL, sixth); status["cached"] != true {
		t.Fatalf("certified top-k seq query missed the certified one-thread shm entry: %v", status)
	}
	if _, res := do(t, "GET", ts.URL+"/sessions/"+sixth+"/result", nil); res["separated"] == nil {
		t.Fatalf("certified top-k seq query served a uniform result from the cache")
	}

	_, stats := do(t, "GET", ts.URL+"/stats", nil)
	cache := stats["cache"].(map[string]any)
	if cache["hits"].(float64) < 1 {
		t.Errorf("cache stats report no hits: %v", cache)
	}
}

func TestRefineTightens(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.2, "seed": 5})

	do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	status := waitIdle(t, ts.URL, id)
	tau0 := status["snapshot"].(map[string]any)["tau"].(float64)

	body, _ := json.Marshal(map[string]any{"eps": 0.05})
	code, resp := do(t, "POST", ts.URL+"/sessions/"+id+"/refine", body)
	if code != http.StatusAccepted {
		t.Fatalf("refine: status %d, resp %v", code, resp)
	}
	status = waitIdle(t, ts.URL, id)
	if status["converged"] != true {
		t.Fatalf("refine did not converge: %v", status)
	}
	if status["eps"].(float64) != 0.05 {
		t.Errorf("session eps after refine = %v, want 0.05", status["eps"])
	}
	tau1 := status["snapshot"].(map[string]any)["tau"].(float64)
	if tau1 <= tau0 {
		t.Errorf("refine did not add samples: tau %v -> %v", tau0, tau1)
	}

	// top_k on a uniform seq session only re-ranks: no resampling, and the
	// session params do not start naming the certified top-k rule.
	body, _ = json.Marshal(map[string]any{"top_k": 3})
	if code, resp := do(t, "POST", ts.URL+"/sessions/"+id+"/refine", body); code != http.StatusAccepted {
		t.Fatalf("top_k refine: status %d, resp %v", code, resp)
	}
	status = waitIdle(t, ts.URL, id)
	if _, named := status["top_k"]; named || status["snapshot"].(map[string]any)["tau"].(float64) != tau1 {
		t.Errorf("top_k refine of a uniform seq session changed it: %v", status)
	}

	// An empty refine body is a 400.
	if code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/refine", []byte("{}")); code != http.StatusBadRequest {
		t.Errorf("empty refine: status %d, want 400", code)
	}
}

// TestRefineDistSession: a dist session refines in place like any other —
// the samples of the run before it are kept and the tighter target reached.
func TestRefineDistSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.2, "backend": "dist"})
	do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil)
	status := waitIdle(t, ts.URL, id)
	tau0 := status["snapshot"].(map[string]any)["tau"].(float64)
	if status["converged"] != true || tau0 == 0 {
		t.Fatalf("dist run: %v", status)
	}

	body, _ := json.Marshal(map[string]any{"eps": 0.01})
	if code, resp := do(t, "POST", ts.URL+"/sessions/"+id+"/refine", body); code != http.StatusAccepted {
		t.Fatalf("refine on the dist backend: status %d, resp %v", code, resp)
	}
	status = waitIdle(t, ts.URL, id)
	snap := status["snapshot"].(map[string]any)
	if status["converged"] != true || status["backend"] != "dist" || status["eps"].(float64) != 0.01 ||
		snap["tau"].(float64) < tau0 || snap["achieved_eps"].(float64) > 0.01 {
		t.Fatalf("refined dist session (tau was %v): %v", tau0, status)
	}
}

func TestBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))

	cases := []map[string]any{
		{"graph": "nope"},                      // unknown graph -> 404
		{"graph": name, "backend": "tcp"},      // daemon-incompatible backend
		{"graph": name, "eps": 2.0},            // invalid epsilon
		{"graph": name, "max_duration": "fas"}, // bad duration
	}
	for i, c := range cases {
		body, _ := json.Marshal(c)
		code, _ := do(t, "POST", ts.URL+"/sessions", body)
		if code != http.StatusBadRequest && code != http.StatusNotFound {
			t.Errorf("case %d (%v): status %d, want 4xx", i, c, code)
		}
	}

	if code, _ := do(t, "GET", ts.URL+"/sessions/s999", nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name, "eps": 0.05, "seed": 2})

	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}

	if code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil); code != http.StatusAccepted {
		t.Fatal("run not accepted")
	}

	// The stream must deliver the opening status, at least one progress
	// event from the per-epoch hook, and the final result event.
	sc := bufio.NewScanner(resp.Body)
	events := map[string]int{}
	deadline := time.After(30 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for events["result"] == 0 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed early; events seen: %v", events)
			}
			if strings.HasPrefix(line, "event: ") {
				events[strings.TrimPrefix(line, "event: ")]++
			}
		case <-deadline:
			t.Fatalf("no result event; events seen: %v", events)
		}
	}
	if events["status"] == 0 {
		t.Errorf("no opening status event: %v", events)
	}
	if events["progress"] == 0 {
		t.Errorf("no progress events: %v", events)
	}
}

func TestDrainingRefusesWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))
	id := createSession(t, ts.URL, map[string]any{"graph": name})

	if err := srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := do(t, "POST", ts.URL+"/sessions/"+id+"/run", nil); code != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs?name=g2", testGraphBytes(t)); code != http.StatusServiceUnavailable {
		t.Errorf("upload while draining: status %d, want 503", code)
	}
	body, _ := json.Marshal(map[string]any{"graph": name})
	if code, _ := do(t, "POST", ts.URL+"/sessions", body); code != http.StatusServiceUnavailable {
		t.Errorf("create while draining: status %d, want 503", code)
	}
	// Idempotent.
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 2})
	name := uploadGraph(t, ts.URL, "g1", testGraphBytes(t))

	ids := make([]string, 4)
	for i := range ids {
		ids[i] = createSession(t, ts.URL, map[string]any{
			"graph": name, "eps": 0.1, "seed": 100 + i,
		})
		if code, _ := do(t, "POST", ts.URL+"/sessions/"+ids[i]+"/run", nil); code != http.StatusAccepted {
			t.Fatalf("run %s not accepted", ids[i])
		}
	}
	for _, id := range ids {
		if status := waitIdle(t, ts.URL, id); status["converged"] != true {
			t.Errorf("session %s did not converge: %v", id, status)
		}
	}
}

func TestUploadKindOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A headerless two-column file sniffs as an edge list; ?kind=directed
	// registers it as an arc list instead.
	arcs := []byte("0 1\n1 2\n2 0\n")
	code, resp := do(t, "POST", ts.URL+"/graphs?name=tri&kind=directed", arcs)
	if code != http.StatusCreated {
		t.Fatalf("directed upload: status %d, resp %v", code, resp)
	}
	if resp["kind"] != "directed" {
		t.Errorf("kind = %v, want directed", resp["kind"])
	}

	// A weighted list cannot be registered as directed.
	weighted := []byte("0 1 2\n1 2 1\n2 0 3\n")
	if code, _ := do(t, "POST", ts.URL+"/graphs?kind=directed", weighted); code != http.StatusBadRequest {
		t.Errorf("weighted-as-directed: status %d, want 400", code)
	}
	// But it registers fine as what it is.
	code, resp = do(t, "POST", ts.URL+"/graphs?name=w", weighted)
	if code != http.StatusCreated || resp["kind"] != "weighted" {
		t.Errorf("weighted upload: status %d kind %v", code, resp["kind"])
	}
}

func ExampleConfig() {
	srv, err := New(Config{MaxConcurrentRuns: 4})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	fmt.Println(resp.Status)
	// Output: 200 OK
}

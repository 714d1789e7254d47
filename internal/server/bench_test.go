package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/graph"
)

// The service-tier micro-benchmarks (bench/ has the daemon-session
// workload for the end-to-end numbers): end-to-end
// session throughput (create + run + result over HTTP) and the latency of
// a status poll against a session that is actively sampling. Both ride the
// sequential backend on a small RMAT graph, so the numbers measure the
// service layer, not the sampler.

func benchServer(b *testing.B) (string, string) {
	b.Helper()
	g := graph.RMAT(graph.Graph500(8, 8, 17))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{MaxConcurrentRuns: 2})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/graphs?name=bench", "application/octet-stream", &buf)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("upload: status %d", resp.StatusCode)
	}
	return ts.URL, "bench"
}

func benchPost(b *testing.B, url string, body []byte) map[string]any {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	return out
}

func benchGet(b *testing.B, url string) map[string]any {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	return out
}

func benchWaitIdle(b *testing.B, base, id string) map[string]any {
	b.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		status := benchGet(b, base+"/sessions/"+id)
		if status["state"] == stateIdle {
			return status
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatalf("session %s never idled", id)
	return nil
}

// BenchmarkServerSession measures the full session lifecycle. The fresh
// variant uses a distinct seed per iteration (every run samples); the
// cached variant repeats one identical query (after the first iteration,
// every run is a cache hit — the service-overhead floor).
func BenchmarkServerSession(b *testing.B) {
	for _, mode := range []string{"fresh", "cached"} {
		b.Run(mode, func(b *testing.B) {
			base, name := benchServer(b)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := 1000
				if mode == "fresh" {
					seed += i
				}
				body := fmt.Sprintf(`{"graph":%q,"eps":0.1,"delta":0.1,"seed":%d}`, name, seed)
				created := benchPost(b, base+"/sessions", []byte(body))
				id := created["id"].(string)
				benchPost(b, base+"/sessions/"+id+"/run", nil)
				if status := benchWaitIdle(b, base, id); status["converged"] != true {
					b.Fatalf("session %s did not converge", id)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "sessions/s")
		})
	}
}

// BenchmarkServerSnapshot measures GET /sessions/{id} latency while the
// session is actively sampling — the status-poll path a dashboard hits.
func BenchmarkServerSnapshot(b *testing.B) {
	base, name := benchServer(b)
	body := fmt.Sprintf(`{"graph":%q,"eps":0.0005,"delta":0.1,"seed":1}`, name)
	created := benchPost(b, base+"/sessions", []byte(body))
	id := created["id"].(string)
	benchPost(b, base+"/sessions/"+id+"/run", nil)
	// Let the run reach steady-state sampling before timing the polls.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status := benchGet(b, base+"/sessions/"+id)
		if snap, ok := status["snapshot"].(map[string]any); ok && snap["tau"].(float64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("run never started sampling")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, base+"/sessions/"+id)
	}
	b.StopTimer()
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/graph"
	"repro/internal/server"
)

// daemonGraph is the name the workload's graph is registered under.
const daemonGraph = "bench"

// pollSleep is the pause between two status polls of a running session.
const pollSleep = 500 * time.Microsecond

// daemon is an in-process betweennessd behind an httptest listener, with the
// workload's graph uploaded once.
type daemon struct {
	in      *instance
	srv     *server.Server
	ts      *httptest.Server
	dataDir string // "" for an in-memory daemon
}

// sessionTimes is one session's lifecycle as its client sees it.
type sessionTimes struct {
	total, create, runAccept, poll, result time.Duration
	polls                                  int
	cached                                 bool
}

// startDaemon brings up a betweennessd, in memory or (durable) persisting to
// a temporary data dir under outDir, uploads the instance's graph and checks a
// session against the library. It also returns the upload's time in ms.
func startDaemon(ctx context.Context, in *instance, outDir string, durable bool, seed uint64) (*daemon, float64, error) {
	d := &daemon{in: in}
	var err error
	if durable {
		if d.dataDir, err = os.MkdirTemp(outDir, "daemon-"); err != nil {
			return nil, 0, err
		}
	}
	if d.srv, err = server.New(server.Config{DataDir: d.dataDir}); err != nil {
		os.RemoveAll(d.dataDir)
		return nil, 0, err
	}
	d.ts = httptest.NewServer(d.srv.Handler())

	var body bytes.Buffer
	var uploaded struct{ Digest string }
	var uploadMs float64
	if err = graph.WriteBCSR2(&body, in.g, graph.WriteOptions{}); err == nil {
		start := time.Now()
		err = d.call(ctx, http.MethodPost, "/graphs?name="+daemonGraph, &body, &uploaded)
		uploadMs = ms(time.Since(start))
	}
	if err == nil && uploaded.Digest != in.g.Digest() {
		err = fmt.Errorf("daemon registered digest %s, uploaded graph has %s", uploaded.Digest, in.g.Digest())
	}
	if err == nil {
		err = d.referenceCheck(ctx, seed)
	}
	if err != nil {
		d.close()
		return nil, 0, err
	}
	return d, uploadMs, nil
}

func (d *daemon) close() {
	d.ts.Close()
	// Drain waits for the server's goroutines; nothing is running by now.
	_ = d.srv.Drain(context.Background())
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// referenceCheck is daemon-session's correctness reference: the daemon's
// default backend is the sequential engine, which is deterministic under a
// seed, so a session must return exactly what the library returns for the
// same graph and parameters.
func (d *daemon) referenceCheck(ctx context.Context, seed uint64) error {
	direct := d.in.baseline(ctx, seed)
	if reason := direct.failure(d.in.spec.eps, nil); reason != "" {
		return fmt.Errorf("daemon reference: %s", reason)
	}
	op := d.op(ctx, seed, nil, -1, -1)
	if reason := op.failure(d.in.spec.eps, direct.estimates); reason != "" {
		return fmt.Errorf("daemon reference: %s", reason)
	}
	for v, b := range op.estimates {
		if b != direct.estimates[v] {
			return fmt.Errorf("daemon reference: vertex %d: session returned %v, library %v", v, b, direct.estimates[v])
		}
	}
	return nil
}

// op is one daemon op: a fresh session taken through its whole lifecycle,
// then the identical request again, which the result cache must serve.
func (d *daemon) op(ctx context.Context, seed uint64, tr *tracer, parent, id int) *opResult {
	op := &opResult{paired: true}
	if op.err = d.session(ctx, seed, op, &op.fresh, tr, parent, id); op.err != nil {
		return op
	}
	op.dur = op.fresh.total
	op.err = d.session(ctx, seed, nil, &op.repeat, tr, parent, id)
	return op
}

// session creates a session, runs it, polls until it is idle, fetches the
// estimates and deletes it. With op set, the reported result is stored there.
func (d *daemon) session(ctx context.Context, seed uint64, op *opResult, st *sessionTimes, tr *tracer, parent, id int) error {
	request := func(took *time.Duration, method, path string, body io.Reader, out any) error {
		sp := tr.begin(method+" "+path, parent, id, 0)
		start := time.Now()
		err := d.call(ctx, method, path, body, out)
		*took += time.Since(start)
		tr.end(sp)
		return err
	}
	start := time.Now()

	var created struct{ ID string }
	params := fmt.Sprintf(`{"graph":%q,"eps":%g,"delta":%g,"seed":%d}`, daemonGraph, d.in.spec.eps, delta, seed)
	if err := request(&st.create, http.MethodPost, "/sessions", bytes.NewBufferString(params), &created); err != nil {
		return err
	}
	path := "/sessions/" + created.ID
	if err := request(&st.runAccept, http.MethodPost, path+"/run", nil, nil); err != nil {
		return err
	}
	var status struct {
		State     string
		Converged bool
		Cached    bool
		Error     string
		Snapshot  struct {
			SamplesPerSec float64 `json:"samples_per_sec"`
		}
	}
	for {
		if err := request(&st.poll, http.MethodGet, path, nil, &status); err != nil {
			return err
		}
		st.polls++
		if status.State == "idle" {
			break
		}
		time.Sleep(pollSleep)
	}
	if status.Error != "" {
		return fmt.Errorf("session %s: %s", created.ID, status.Error)
	}
	st.cached = status.Cached
	var result struct {
		Tau         int64
		Converged   bool
		AchievedEps float64 `json:"achieved_eps"`
		Estimates   []float64
	}
	if err := request(&st.result, http.MethodGet, path+"/result?estimates=1", nil, &result); err != nil {
		return err
	}
	var deleted time.Duration
	if err := request(&deleted, http.MethodDelete, path, nil, nil); err != nil {
		return err
	}
	st.total = time.Since(start)
	if op != nil {
		op.estimates, op.tau, op.converged, op.achievedEps = result.Estimates, result.Tau, result.Converged, result.AchievedEps
		op.adsRate = status.Snapshot.SamplesPerSec
	}
	return nil
}

// call performs one request against the daemon and decodes the JSON reply
// into out (when non-nil). Any status from 400 up is an error.
func (d *daemon) call(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

package betweenness

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
)

func TestWithDistCheckpointValidation(t *testing.T) {
	s := defaultSettings()
	if err := WithDistCheckpoint(0, func([]byte) {})(&s); err == nil {
		t.Error("zero interval accepted")
	}
	if err := WithDistCheckpoint(2, nil)(&s); err == nil {
		t.Error("nil sink accepted")
	}
	if err := WithDistCheckpoint(2, func([]byte) {})(&s); err != nil {
		t.Errorf("valid option rejected: %v", err)
	}
	if s.DistCheckpointInterval != 2 || s.DistCheckpoint == nil {
		t.Error("option did not land in params")
	}
}

// TestDistCheckpointRoundtrip drives the full periodic-checkpoint path on
// the LocalMPI backend: the process's sink receives each sealed payload
// once (an in-process world delivers at rank 0 only), the payload restores
// through the standard RestoreEstimator door as a LocalMPI session of the
// same shape, and the resumed session converges to the guarantee without a
// second calibration.
func TestDistCheckpointRoundtrip(t *testing.T) {
	g := testGraph(t)
	const procs, threads = 2, 2
	eps := 0.005

	var mu sync.Mutex
	var payloads [][]byte
	res, err := Estimate(context.Background(), g,
		WithEpsilon(eps),
		WithSeed(77),
		WithThreads(threads),
		WithExecutor(LocalMPI(procs)),
		WithDistCheckpoint(1, func(p []byte) {
			cp := append([]byte(nil), p...)
			mu.Lock()
			payloads = append(payloads, cp)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Distributed == nil {
		t.Fatal("no distributed stats")
	}
	ds := res.Distributed
	if ds.RanksStarted != procs || ds.RanksFinished != procs || ds.RanksLost != 0 {
		t.Errorf("healthy run recorded ranks %d/%d/%d, want %d/%d/0", ds.RanksStarted, ds.RanksFinished, ds.RanksLost, procs, procs)
	}
	if ds.Checkpoints < 1 {
		t.Fatalf("interval 1 produced %d checkpoints over %d epochs", ds.Checkpoints, ds.Epochs)
	}
	mu.Lock()
	count := len(payloads)
	last := payloads[count-1]
	mu.Unlock()
	// One delivery per process and interval.
	if count != ds.Checkpoints {
		t.Errorf("the sink saw %d payloads for %d checkpoints", count, ds.Checkpoints)
	}

	est, err := RestoreEstimator(bytes.NewReader(last), Undirected(g))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(est.sts) != procs || est.st.Procs() != procs || est.st.Threads() != threads {
		t.Fatalf("restored %d states, procs %d, threads %d; want the %d x %d session",
			len(est.sts), est.st.Procs(), est.st.Threads(), procs, threads)
	}
	held := est.Snapshot().Tau
	rres, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rres.Backend != "local-mpi" || rres.Distributed == nil || rres.Distributed.RanksStarted != procs {
		t.Fatalf("resumed on backend %q (distributed %+v), want local-mpi on %d ranks", rres.Backend, rres.Distributed, procs)
	}
	if !rres.Converged || rres.Tau < held || held == 0 {
		t.Fatalf("resumed session: converged=%v tau=%d, held %d at the restore", rres.Converged, rres.Tau, held)
	}
	if rres.Timings.Calibration != 0 {
		t.Errorf("resumed session recalibrated for %v: phase 2 must be skipped", rres.Timings.Calibration)
	}
	// The restored run resumed from mid-run global state; its estimates
	// must agree with the uninterrupted run's within the two guarantees.
	worst := 0.0
	for v := range res.Estimates {
		if d := math.Abs(res.Estimates[v] - rres.Estimates[v]); d > worst {
			worst = d
		}
	}
	if worst > 2*eps {
		t.Errorf("restored estimates diverge by %f, want <= %f", worst, 2*eps)
	}
}

package betweenness

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestWithCheckpointEveryValidation(t *testing.T) {
	s := defaultSettings()
	if err := WithCheckpointEvery(0, func([]byte) {})(&s); err == nil {
		t.Error("zero interval accepted")
	}
	if err := WithCheckpointEvery(-time.Second, func([]byte) {})(&s); err == nil {
		t.Error("negative interval accepted")
	}
	if err := WithCheckpointEvery(time.Second, nil)(&s); err == nil {
		t.Error("nil sink accepted")
	}
	if err := WithCheckpointEvery(time.Second, func([]byte) {})(&s); err != nil {
		t.Errorf("valid option rejected: %v", err)
	}
	if s.CheckpointEvery != time.Second || s.CheckpointSink == nil || s.coreConfig().CheckpointInterval != time.Second {
		t.Error("option did not land in params")
	}
}

// TestDistCheckpointRoundtrip drives the full in-run capture path on the
// LocalMPI backend: a 1 ns interval captures at every continuing fold, the
// process's sink receives each sealed payload once (an in-process world
// delivers at rank 0 only), the payload restores
// through the standard RestoreEstimator door as a LocalMPI session of the
// same shape, and the resumed session converges to the guarantee without a
// second calibration.
func TestDistCheckpointRoundtrip(t *testing.T) {
	g := testGraph(t)
	const procs, threads = 2, 2
	eps := 0.005

	var mu sync.Mutex
	var payloads [][]byte
	res, err := Estimate(context.Background(), Undirected(g),
		WithEpsilon(eps),
		WithSeed(77),
		WithThreads(threads),
		WithExecutor(LocalMPI(procs)),
		WithCheckpointEvery(time.Nanosecond, func(p []byte) {
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
	if ds.Checkpoints < 1 || ds.Checkpoints != ds.Epochs-1 {
		t.Fatalf("a 1 ns interval produced %d captures over %d epochs, want one per continuing fold", ds.Checkpoints, ds.Epochs)
	}
	mu.Lock()
	count := len(payloads)
	last := payloads[count-1]
	mu.Unlock()
	// One delivery per process and capture.
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

// TestInRunCaptureEveryBackend: a 1 ns interval captures at every
// continuing fold on every in-process backend, and a capture restores on
// the backend it came from and runs to convergence. A one-thread capture
// carries its RNG stream, so from any capture the resumed session finishes
// bit-identically to the run that never stopped. While the sink runs, the
// Snapshot a concurrent reader gets already holds the captured tau.
func TestInRunCaptureEveryBackend(t *testing.T) {
	g := testGraph(t)
	const eps = 0.01
	for _, tc := range []struct {
		exec           Executor
		threads, procs int
	}{
		{Sequential(), 1, 0},
		{SharedMemory(), 2, 0},
		{LocalMPI(2), 1, 2},
	} {
		t.Run(label(tc.exec), func(t *testing.T) {
			var captures [][]byte
			var seen []int64 // Snapshot().Tau read inside the sink
			var est *Estimator
			est, err := NewEstimator(Undirected(g), WithEpsilon(eps), WithSeed(9),
				WithThreads(tc.threads), WithExecutor(tc.exec),
				WithCheckpointEvery(time.Nanosecond, func(p []byte) {
					captures = append(captures, append([]byte(nil), p...))
					seen = append(seen, est.Snapshot().Tau)
				}))
			if err != nil {
				t.Fatal(err)
			}
			want, err := est.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(captures) == 0 {
				t.Fatalf("no capture over a run of %d epochs", want.Epochs)
			}
			if d := want.Distributed; d != nil && d.Checkpoints != len(captures) {
				t.Fatalf("the sink saw %d captures, the run reports %d", len(captures), d.Checkpoints)
			}
			for _, i := range []int{0, len(captures) - 1} {
				est, err := RestoreEstimator(bytes.NewReader(captures[i]), Undirected(g))
				if err != nil {
					t.Fatalf("capture %d: %v", i, err)
				}
				held := est.Snapshot().Tau
				if est.st.Threads() != tc.threads || est.st.Procs() != tc.procs || held == 0 || held >= want.Tau {
					t.Fatalf("capture %d restored as %d threads, %d procs, tau %d (the run ended at %d)",
						i, est.st.Threads(), est.st.Procs(), held, want.Tau)
				}
				if seen[i] != held {
					t.Fatalf("during capture %d Snapshot read tau %d, the capture holds %d", i, seen[i], held)
				}
				got, err := est.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got.Backend != want.Backend || !got.Converged || got.Tau < held || got.AchievedEps > eps {
					t.Fatalf("capture %d resumed on %q: converged=%v tau=%d (held %d) achieved %g",
						i, got.Backend, got.Converged, got.Tau, held, got.AchievedEps)
				}
				if tc.threads == 1 && tc.procs == 0 {
					if got.Tau != want.Tau || got.Epochs != want.Epochs || !slices.Equal(got.Estimates, want.Estimates) {
						t.Fatalf("capture %d finished at tau %d, %d epochs; the uninterrupted run at %d, %d (estimates equal: %v)",
							i, got.Tau, got.Epochs, want.Tau, want.Epochs, slices.Equal(got.Estimates, want.Estimates))
					}
				} else if rep := Compare(Exact(g, 0), got.Estimates, eps); rep.MaxAbs > eps {
					t.Errorf("capture %d: resumed run off by %.4f (tau=%d)", i, rep.MaxAbs, got.Tau)
				}
			}
		})
	}
}

// TestRefineReplacesCheckpointSink: a Refine that carries
// WithCheckpointEvery replaces the session's interval and sink, as
// WithProgress replaces its stream: every capture of that refine reaches
// the new sink and none the old one.
func TestRefineReplacesCheckpointSink(t *testing.T) {
	g := testGraph(t)
	for _, exec := range []Executor{Sequential(), LocalMPI(2)} {
		t.Run(label(exec), func(t *testing.T) {
			var old, repl int
			est, err := NewEstimator(Undirected(g), WithEpsilon(0.05), WithSeed(3), WithExecutor(exec),
				WithCheckpointEvery(time.Hour, func([]byte) { old++ }))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := est.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if old != 0 {
				t.Fatalf("an hour's interval captured %d times", old)
			}
			res, err := est.Refine(context.Background(), WithEpsilon(0.01),
				WithCheckpointEvery(time.Nanosecond, func([]byte) { repl++ }))
			if err != nil {
				t.Fatal(err)
			}
			if repl == 0 || old != 0 {
				t.Fatalf("refine over %d epochs: %d captures to the new sink, %d to the old", res.Epochs, repl, old)
			}
			if d := res.Distributed; d != nil && d.Checkpoints != repl {
				t.Fatalf("the new sink saw %d captures, the refine reports %d", repl, d.Checkpoints)
			}
		})
	}
}

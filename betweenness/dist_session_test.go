package betweenness

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// TestDistSessionKeepsSamples is the contract of a distributed session on
// all three workloads: a budget-stopped Run keeps its samples, so the next
// call grows tau without a second calibration; Refine to a tighter eps
// converges from them and passes the Brandes parity check; and a checkpoint
// restores as the LocalMPI session it was, and continues.
func TestDistSessionKeepsSamples(t *testing.T) {
	const coarse, fine = 0.05, 0.02
	const procs, threads = 2, 2
	dg := sccCoreWithDAGFringe(30, 20)
	wg := weightedGrid(t, 6, 6, 4)
	ug := testGraph(t)
	for _, tc := range []struct {
		name  string
		w     Workload
		exact []float64
	}{
		{"undirected", Undirected(ug), Exact(ug, 0)},
		{"directed", Directed(dg), ExactDirected(dg, 0)},
		{"weighted", Weighted(wg), ExactWeighted(wg, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A target the first budget cannot reach, though it covers the
			// calibration batch (tau0 ~ 2000 at eps 0.004 on these graphs).
			est, err := NewEstimator(tc.w, WithEpsilon(0.004), WithSeed(7), WithThreads(threads),
				WithExecutor(LocalMPI(procs)), WithMaxSamples(3000))
			if err != nil {
				t.Fatal(err)
			}
			first, err := est.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if first.Converged || first.Tau < 3000 || first.AchievedEps >= 1 || first.Timings.Calibration == 0 {
				t.Fatalf("first run: converged=%v tau=%d achieved eps %g calibration=%v; want a budget stop past phase 2",
					first.Converged, first.Tau, first.AchievedEps, first.Timings.Calibration)
			}
			// Run again under the same (spent) budget: nothing to do, and
			// nothing lost.
			same, err := est.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if same.Tau != first.Tau || same.Epochs != first.Epochs {
				t.Fatalf("a Run on a spent budget moved the session: tau %d -> %d", first.Tau, same.Tau)
			}
			// A larger budget continues the same session.
			second, err := est.Refine(context.Background(), WithMaxSamples(4*first.Tau))
			if err != nil {
				t.Fatal(err)
			}
			if second.Tau <= first.Tau || second.Epochs <= first.Epochs {
				t.Fatalf("second run did not continue the first: tau %d -> %d, epochs %d -> %d",
					first.Tau, second.Tau, first.Epochs, second.Epochs)
			}
			if second.Timings.Calibration != first.Timings.Calibration {
				t.Fatalf("second run calibrated again: %v -> %v", first.Timings.Calibration, second.Timings.Calibration)
			}
			if second.Distributed == nil || second.Distributed.Epochs != second.Epochs-first.Epochs {
				t.Fatalf("per-run counters %+v do not cover the %d epochs of the second run",
					second.Distributed, second.Epochs-first.Epochs)
			}

			// Retarget (looser, then tighter), lifting the budget.
			loose, err := est.Refine(context.Background(), WithEpsilon(coarse), WithMaxSamples(1<<40))
			if err != nil {
				t.Fatal(err)
			}
			if !loose.Converged || loose.Tau < second.Tau {
				t.Fatalf("refine to eps %g: converged=%v tau %d -> %d", coarse, loose.Converged, second.Tau, loose.Tau)
			}
			refined, err := est.Refine(context.Background(), WithEpsilon(fine))
			if err != nil {
				t.Fatal(err)
			}
			if !refined.Converged || refined.Tau < loose.Tau || refined.AchievedEps > fine {
				t.Fatalf("refine to eps %g: converged=%v tau %d -> %d achieved %g",
					fine, refined.Converged, loose.Tau, refined.Tau, refined.AchievedEps)
			}
			if rep := Compare(tc.exact, refined.Estimates, fine); rep.MaxAbs > fine {
				t.Errorf("refined run off by %.4f > %g (tau=%d)", rep.MaxAbs, fine, refined.Tau)
			}

			// Checkpoint, restore, continue: same backend, same shape.
			var buf bytes.Buffer
			if err := est.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreEstimator(bytes.NewReader(buf.Bytes()), tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if len(restored.sts) != procs || restored.st.Procs() != procs || restored.st.Threads() != threads {
				t.Fatalf("restored %d states, procs %d, threads %d; want %d x %d",
					len(restored.sts), restored.st.Procs(), restored.st.Threads(), procs, threads)
			}
			if snap := restored.Snapshot(); !snap.Live || snap.Tau != refined.Tau {
				t.Fatalf("restored snapshot live=%v tau=%d, want live at tau %d", snap.Live, snap.Tau, refined.Tau)
			}
			tighter, err := restored.Refine(context.Background(), WithEpsilon(fine/2))
			if err != nil {
				t.Fatal(err)
			}
			// (Epoch overshoot may have met the tighter target already, so
			// tau need not grow — it must never shrink.)
			if tighter.Backend != "local-mpi" || !tighter.Converged || tighter.Tau < refined.Tau || tighter.AchievedEps > fine/2 {
				t.Fatalf("restored session on %q: converged=%v tau %d -> %d achieved %g",
					tighter.Backend, tighter.Converged, refined.Tau, tighter.Tau, tighter.AchievedEps)
			}
			if rep := Compare(tc.exact, tighter.Estimates, fine/2); rep.MaxAbs > fine/2 {
				t.Errorf("restored and refined run off by %.4f > %g (tau=%d)", rep.MaxAbs, fine/2, tighter.Tau)
			}
		})
	}
}

// TestShmInRunCaptureRestoresAsShm: a capture taken while the sampling
// threads run restores as the shared-memory session it was, with its T
// threads — not onto the sequential engine.
func TestShmInRunCaptureRestoresAsShm(t *testing.T) {
	g := testGraph(t)
	const threads = 3
	est, err := NewEstimator(Undirected(g), WithEpsilon(0.01), WithSeed(5), WithThreads(threads),
		WithExecutor(SharedMemory()))
	if err != nil {
		t.Fatal(err)
	}
	var capture []byte
	est.SetCheckpointSink(func(p []byte) {
		if capture == nil {
			capture = append([]byte(nil), p...)
		}
	})
	if !est.RequestCheckpoint() {
		t.Fatal("shared-memory session refused a capture request")
	}
	want, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if capture == nil {
		t.Fatal("no in-run capture over a multi-epoch run")
	}
	restored, err := RestoreEstimator(bytes.NewReader(capture), Undirected(g))
	if err != nil {
		t.Fatal(err)
	}
	held := restored.Snapshot().Tau
	if restored.st.Threads() != threads || restored.st.Procs() != 0 || held == 0 || held >= want.Tau {
		t.Fatalf("capture restored with %d threads, %d procs, tau %d (the run ended at %d)",
			restored.st.Threads(), restored.st.Procs(), held, want.Tau)
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "shared-memory" || !got.Converged || got.Tau < held || got.AchievedEps > 0.01 {
		t.Fatalf("resumed on %q: converged=%v tau=%d (held %d) achieved %g",
			got.Backend, got.Converged, got.Tau, held, got.AchievedEps)
	}
	if rep := Compare(Exact(g, 0), got.Estimates, 0.01); rep.MaxAbs > 0.01 {
		t.Errorf("resumed run off by %.4f (tau=%d)", rep.MaxAbs, got.Tau)
	}
}

// TestTCPSessionRunRefine: a 2-rank TCP session is a session on both
// ranks — Run, then Refine, collectively; rank 0 keeps the samples across
// the two worlds and its targets reach rank 1 even when rank 1 is told
// nothing.
func TestTCPSessionRunRefine(t *testing.T) {
	g := testGraph(t)
	exact := Exact(g, 0)
	addrs := tcpWorld(t, 2)
	const coarse, fine = 0.05, 0.001
	type outcome struct {
		first, refined *Result
		err            error
	}
	outs := make([]outcome, 2)
	var wg sync.WaitGroup
	for rank := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[rank]
			est, err := NewEstimator(Undirected(g), WithEpsilon(coarse), WithSeed(21), WithThreads(2),
				WithExecutor(TCP(rank, addrs)))
			if err != nil {
				o.err = err
				return
			}
			if o.first, o.err = est.Run(context.Background()); o.err != nil {
				return
			}
			// Only rank 0 names the new target; rank 1 learns it from the
			// announcement that opens the run.
			var opts []Option
			if rank == 0 {
				opts = append(opts, WithEpsilon(fine))
			}
			o.refined, o.err = est.Refine(context.Background(), opts...)
		}()
	}
	wg.Wait()
	for rank, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", rank, o.err)
		}
	}
	first, refined := outs[0].first, outs[0].refined
	if !first.Converged || !refined.Converged || refined.Tau < first.Tau || refined.AchievedEps > fine {
		t.Fatalf("rank 0: first converged=%v tau=%d; refined converged=%v tau=%d achieved %g",
			first.Converged, first.Tau, refined.Converged, refined.Tau, refined.AchievedEps)
	}
	// A TCP epoch overshoots a loose target by a lot (the workers sample
	// through every network wait); only when it did not already meet the
	// tight one must the refine have drawn more.
	if first.AchievedEps > fine && refined.Tau == first.Tau {
		t.Fatalf("rank 0: refine from achieved eps %g to %g drew nothing (tau %d)", first.AchievedEps, fine, first.Tau)
	}
	if refined.Timings.Calibration != first.Timings.Calibration {
		t.Errorf("the refine calibrated again: %v -> %v", first.Timings.Calibration, refined.Timings.Calibration)
	}
	if rep := Compare(exact, refined.Estimates, fine); rep.MaxAbs > fine {
		t.Errorf("refined run off by %.4f > %g (tau=%d)", rep.MaxAbs, fine, refined.Tau)
	}
	if r1 := outs[1].refined; r1.Estimates != nil || r1.Distributed == nil || r1.Distributed.Epochs != refined.Distributed.Epochs {
		t.Errorf("rank 1 result: estimates=%v distributed=%+v, want statistics only, in step with rank 0",
			r1.Estimates != nil, r1.Distributed)
	}
}

package betweenness

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSnapshotDuringRun hammers Snapshot from several goroutines
// while Run is sampling, on both steppable engines. It is primarily a
// -race exercise (Snapshot's contract is lock-free sanity under a live
// run), but it also asserts every observation is internally consistent:
// non-negative tau, achieved eps within (0, 1], and never a torn
// estimates slice.
func TestConcurrentSnapshotDuringRun(t *testing.T) {
	g := testGraph(t)
	engines := map[string]Option{
		"seq": WithExecutor(Sequential()),
		"shm": WithExecutor(SharedMemory()),
	}
	for name, exec := range engines {
		t.Run(name, func(t *testing.T) {
			est, err := NewEstimator(Undirected(g),
				WithEpsilon(0.01), WithSeed(9), exec)
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			var observedLive atomic.Bool
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						s := est.Snapshot()
						if s.Tau < 0 {
							t.Errorf("snapshot tau %d negative", s.Tau)
							return
						}
						if s.AchievedEps <= 0 || s.AchievedEps > 1 {
							t.Errorf("snapshot achieved eps %g outside (0, 1]", s.AchievedEps)
							return
						}
						if s.Estimates != nil && len(s.Estimates) != g.NumNodes() {
							t.Errorf("snapshot estimates length %d, want %d", len(s.Estimates), g.NumNodes())
							return
						}
						if s.Live {
							observedLive.Store(true)
						}
					}
				}()
			}

			res, err := est.Run(context.Background())
			stop.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("run did not converge")
			}
			// After the run, Snapshot reports the final state.
			final := est.Snapshot()
			if final.Tau != res.Tau {
				t.Errorf("post-run snapshot tau %d, result tau %d", final.Tau, res.Tau)
			}
			_ = observedLive.Load() // live observations depend on timing; absence is not a failure
		})
	}
}

// TestSnapshotOneShotBackendNotLive pins the documented degradation: a
// custom Executor keeps its state inside Run, so Snapshot serves the last
// completed Run's final state with Live == false — before the first Run it
// is the zero observation — while every built-in backend, the in-process
// MPI one included, serves live snapshots of the state its session owns.
func TestSnapshotOneShotBackendNotLive(t *testing.T) {
	g := testGraph(t)
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.05), WithSeed(3), WithExecutor(undirectedOnlyExec{}))
	if err != nil {
		t.Fatal(err)
	}
	pre := est.Snapshot()
	if pre.Live {
		t.Error("fresh one-shot session reports a live snapshot")
	}
	if pre.Tau != 0 || pre.AchievedEps != 1 {
		t.Errorf("fresh snapshot = tau %d, eps %g; want 0 and 1", pre.Tau, pre.AchievedEps)
	}

	// Snapshot must stay safe to call while the one-shot backend runs.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if s := est.Snapshot(); s.Live {
				t.Error("one-shot backend produced a live snapshot mid-run")
				return
			}
		}
	}()
	res, err := est.Run(context.Background())
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	post := est.Snapshot()
	if post.Live {
		t.Error("one-shot final snapshot marked live")
	}
	if post.Tau != res.Tau {
		t.Errorf("one-shot final snapshot tau %d, result tau %d", post.Tau, res.Tau)
	}
	if post.AchievedEps != res.AchievedEps {
		t.Errorf("one-shot final snapshot eps %g, result %g", post.AchievedEps, res.AchievedEps)
	}

	// The opposite for LocalMPI: live before, during and after, and the
	// final snapshot reads the state the session keeps at world rank 0.
	dist, err := NewEstimator(Undirected(g),
		WithEpsilon(0.05), WithSeed(3), WithExecutor(LocalMPI(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s := dist.Snapshot(); !s.Live || s.Tau != 0 || s.AchievedEps != 1 {
		t.Errorf("fresh LocalMPI snapshot = %+v; want live, tau 0, eps 1", s)
	}
	stop.Store(false)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if s := dist.Snapshot(); !s.Live {
				t.Error("LocalMPI session produced a non-live snapshot")
				return
			}
		}
	}()
	dres, err := dist.Run(context.Background())
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if s := dist.Snapshot(); !s.Live || s.Tau != dres.Tau || s.Estimates == nil {
		t.Errorf("LocalMPI final snapshot live=%v tau %d (result tau %d) estimates=%v",
			s.Live, s.Tau, dres.Tau, s.Estimates != nil)
	}
}

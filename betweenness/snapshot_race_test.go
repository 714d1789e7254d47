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
		})
	}
}

// TestSnapshotLocalMPISession: a LocalMPI session serves snapshots of the
// state it keeps at world rank 0 before, during and after a Run.
func TestSnapshotLocalMPISession(t *testing.T) {
	g := testGraph(t)
	dist, err := NewEstimator(Undirected(g),
		WithEpsilon(0.05), WithSeed(3), WithExecutor(LocalMPI(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s := dist.Snapshot(); s.Tau != 0 || s.AchievedEps != 1 {
		t.Errorf("fresh LocalMPI snapshot = %+v; want tau 0, eps 1", s)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if s := dist.Snapshot(); s.Tau < 0 || s.AchievedEps <= 0 || s.AchievedEps > 1 {
				t.Errorf("LocalMPI mid-run snapshot tau %d, eps %g", s.Tau, s.AchievedEps)
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
	if s := dist.Snapshot(); s.Tau != dres.Tau || s.AchievedEps != dres.AchievedEps || s.Estimates == nil {
		t.Errorf("LocalMPI final snapshot tau %d eps %g (result tau %d eps %g) estimates=%v",
			s.Tau, s.AchievedEps, dres.Tau, dres.AchievedEps, s.Estimates != nil)
	}
}

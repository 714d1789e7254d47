package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/brandes"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// killOverTCP runs a 3-rank TCP world on 127.0.0.1 and hard-kills rank 2
// mid-run (TCPWorld.Abort: connections torn down with no goodbye — the
// in-process stand-in for SIGKILL). The kill is triggered from rank 0's
// epoch hook, so it always lands inside the adaptive loop. Returns rank
// 0's result and the per-rank errors.
func killOverTCP(t *testing.T, w kadabra.Workload, cfg Config) (*Result, []error) {
	t.Helper()
	const procs = 3
	addrs := freeAddrs(t, procs)
	opts := mpi.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		LivenessTimeout:   time.Second,
	}

	kill := make(chan struct{})
	var killOnce sync.Once
	var rootRes *Result
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, world, err := mpi.ConnectTCPOpts(r, addrs, opts)
			if err != nil {
				errs[r] = err
				killOnce.Do(func() { close(kill) })
				return
			}
			rcfg := cfg
			switch r {
			case 0:
				rcfg.Config.OnEpoch = func(p kadabra.Progress) {
					if p.Epoch == 2 {
						killOnce.Do(func() { close(kill) })
					}
				}
				defer world.Close()
			case 2:
				// The victim's abort runs on a watcher goroutine, exactly
				// like an external SIGKILL interrupting a busy process.
				go func() {
					<-kill
					world.Abort()
				}()
			default:
				defer world.Close()
			}
			res, err := func() (*Result, error) {
				if r == 2 {
					defer killOnce.Do(func() { close(kill) }) // run ended before the kill
				}
				return algorithm2Fresh(context.Background(), w, comm, rcfg)
			}()
			errs[r] = err
			if r == 0 && err == nil {
				rootRes = res
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("TCP world with a killed rank did not terminate")
	}
	return rootRes, errs
}

func checkTCPKill(t *testing.T, res *Result, errs []error, exact []float64, eps float64) {
	t.Helper()
	if errs[2] == nil {
		t.Fatal("killed rank 2 returned no error (run converged before the kill epoch?)")
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("surviving rank %d failed: %v", r, errs[r])
		}
	}
	if res == nil || res.Res == nil {
		t.Fatal("rank 0 produced no result")
	}
	if !res.Res.Converged {
		t.Error("run did not converge after losing a rank")
	}
	if res.Stats.RanksLost != 1 || res.Stats.Recoveries < 1 {
		t.Errorf("stats = %+v, want 1 rank lost and >= 1 recovery", res.Stats)
	}
	if worst := maxAbsErr(exact, res.Res.Betweenness); worst > eps {
		t.Errorf("max error %f exceeds eps %f (tau=%d)", worst, eps, res.Res.Tau)
	}
}

// TestKillRankOverTCPUndirected is the real kill-a-rank end-to-end test:
// a genuine 3-rank TCP mesh, one worker hard-killed mid-run, and the
// (eps, delta) guarantee still holding on the shrunken world.
func TestKillRankOverTCPUndirected(t *testing.T) {
	g := testGraph()
	cfg := faultCfg(21)
	res, errs := killOverTCP(t, kadabra.UndirectedWorkload(g), cfg)
	checkTCPKill(t, res, errs, brandes.Exact(g), cfg.Eps)
}

func TestKillRankOverTCPDirected(t *testing.T) {
	dg := testDigraph()
	cfg := faultCfg(22)
	res, errs := killOverTCP(t, kadabra.DirectedWorkload(dg), cfg)
	checkTCPKill(t, res, errs, brandes.ExactDirected(dg), cfg.Eps)
}

func TestKillRankOverTCPWeighted(t *testing.T) {
	wg := testWGraph(t)
	cfg := faultCfg(23)
	res, errs := killOverTCP(t, kadabra.WeightedWorkload(wg), cfg)
	checkTCPKill(t, res, errs, brandes.ExactWeighted(wg), cfg.Eps)
}

package core

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/brandes"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// victimEnv carries the world's addresses to the child process that plays
// the killed rank; its presence makes a kill test run as that rank.
const victimEnv = "BC_TCP_KILL_VICTIM"

// killOverTCP runs a 3-rank TCP world on 127.0.0.1 and SIGKILLs rank 2
// mid-run. Rank 2 is a child process, this test binary re-running the
// calling test with victimEnv set, so its connections die as a crashed
// process's do: torn down by the kernel with no goodbye. The kill is
// triggered from rank 0's epoch hook, so it always lands inside the
// adaptive loop. Returns rank 0's result and the per-rank errors, rank 2's
// being its exit status.
func killOverTCP(t *testing.T, w kadabra.Workload, cfg Config) (*Result, []error) {
	t.Helper()
	const procs = 3
	opts := mpi.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		LivenessTimeout:   time.Second,
	}
	if addrs := os.Getenv(victimEnv); addrs != "" {
		comm, _, err := mpi.ConnectTCPOpts(2, strings.Split(addrs, ","), opts)
		if err == nil {
			_, err = algorithm2Fresh(context.Background(), w, comm, cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0) // the run ended before the kill
	}

	addrs := freeAddrs(t, procs)
	victim := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	victim.Env = append(os.Environ(), victimEnv+"="+strings.Join(addrs, ","))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { victim.Process.Kill() })
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { victim.Process.Kill() }) }

	var rootRes *Result
	errs := make([]error, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	go func() {
		defer wg.Done()
		errs[2] = victim.Wait()
	}()
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			comm, world, err := mpi.ConnectTCPOpts(r, addrs, opts)
			if err != nil {
				errs[r] = err
				kill()
				return
			}
			defer world.Close()
			rcfg := cfg
			if r == 0 {
				rcfg.Config.OnEpoch = func(p kadabra.Progress) {
					if p.Epoch == 2 {
						kill()
					}
				}
			}
			res, err := algorithm2Fresh(context.Background(), w, comm, rcfg)
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
	checkTCPKill(t, res, errs, brandes.Parallel(g, 1), cfg.Eps)
}

func TestKillRankOverTCPDirected(t *testing.T) {
	dg := testDigraph()
	cfg := faultCfg(22)
	res, errs := killOverTCP(t, kadabra.DirectedWorkload(dg), cfg)
	checkTCPKill(t, res, errs, brandes.ParallelDirected(dg, 1), cfg.Eps)
}

func TestKillRankOverTCPWeighted(t *testing.T) {
	wg := testWGraph(t)
	cfg := faultCfg(23)
	res, errs := killOverTCP(t, kadabra.WeightedWorkload(wg), cfg)
	checkTCPKill(t, res, errs, brandes.ParallelWeighted(wg, 1), cfg.Eps)
}

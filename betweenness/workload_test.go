package betweenness

import (
	"context"
	"net"
	"sync"
	"testing"
)

func TestWorkloadKindString(t *testing.T) {
	cases := map[WorkloadKind]string{
		WorkloadUndirected: "undirected",
		WorkloadDirected:   "directed",
		WorkloadWeighted:   "weighted",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if WorkloadKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

// TestWorkloadAccessors: the tagged workload exposes its kind and size.
func TestWorkloadAccessors(t *testing.T) {
	g := testGraph(t)
	w := Undirected(g)
	if w.Kind() != WorkloadUndirected || w.NumNodes() != g.NumNodes() || w.Err() != nil {
		t.Errorf("Undirected workload: kind=%v n=%d err=%v", w.Kind(), w.NumNodes(), w.Err())
	}
	dw := Directed(directedCycle(8))
	if dw.Kind() != WorkloadDirected || dw.NumNodes() != 8 {
		t.Errorf("Directed workload: kind=%v n=%d", dw.Kind(), dw.NumNodes())
	}
	ww := Weighted(weightedGrid(t, 3, 3, 4))
	if ww.Kind() != WorkloadWeighted || ww.NumNodes() != 9 {
		t.Errorf("Weighted workload: kind=%v n=%d", ww.Kind(), ww.NumNodes())
	}
	if Undirected(nil).Err() == nil || Directed(nil).Err() == nil || Weighted(nil).Err() == nil {
		t.Error("nil-graph workloads carry no construction error")
	}
}

// TestZeroWorkloadRejected: the zero Workload must be rejected at session
// construction on every backend, never panic. TCP is included: validation
// runs before any dial.
func TestZeroWorkloadRejected(t *testing.T) {
	if _, err := Estimate(context.Background(), Workload{}); err == nil {
		t.Error("Estimate accepted the zero workload")
	}
	for _, exec := range allBackends() {
		if _, err := NewEstimator(Workload{}, WithExecutor(exec)); err == nil {
			t.Errorf("%s: NewEstimator accepted the zero workload", label(exec))
		}
	}
}

// allBackends is one value of each backend. The TCP world's only host is
// unroutable: sessions on it may be built, never run.
func allBackends() []Executor {
	return []Executor{Sequential(), SharedMemory(), LocalMPI(2), TCP(0, []string{"127.0.0.1:1"})}
}

// label names exec in test names and messages. Sequential keeps a label of
// its own, although its Name is SharedMemory's.
func label(exec Executor) string {
	if exec == Sequential() {
		return "sequential"
	}
	return exec.Name()
}

// --- TCP directed & weighted parity -----------------------------------------

// tcpWorld reserves n loopback addresses for a TCP-backend test world.
func tcpWorld(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCPWorkload runs one workload on a 2-rank TCP world, every rank a
// goroutine calling the public front door, and returns rank 0's result.
func runTCPWorkload(t *testing.T, w Workload, seed uint64) *Result {
	t.Helper()
	addrs := tcpWorld(t, 2)
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = Estimate(context.Background(), w,
				WithEpsilon(0.05), WithSeed(seed), WithThreads(2),
				WithExecutor(TCP(rank, addrs)))
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if results[0].Estimates == nil {
		t.Fatal("rank 0 got no estimates")
	}
	if results[1].Estimates != nil {
		t.Error("rank 1 unexpectedly got estimates")
	}
	return results[0]
}

// TestTCPDirectedParity runs the directed workload over a genuine 2-rank
// TCP world and validates the estimates against directed Brandes. Kept
// -short friendly: it is part of the race job's dispatch coverage.
func TestTCPDirectedParity(t *testing.T) {
	dg := sccCoreWithDAGFringe(30, 20)
	exact := ExactDirected(dg, 0)
	res := runTCPWorkload(t, Directed(dg), 17)
	if res.Backend != "tcp" {
		t.Errorf("backend = %q, want tcp", res.Backend)
	}
	if rep := Compare(exact, res.Estimates, 0.05); rep.MaxAbs > 0.05 {
		t.Errorf("tcp directed estimates off by %.4f > eps (tau=%d)", rep.MaxAbs, res.Tau)
	}
}

// TestTCPWeightedParity is the weighted counterpart: Dijkstra-sampled
// estimates over TCP against weighted Brandes.
func TestTCPWeightedParity(t *testing.T) {
	wg := weightedGrid(t, 6, 6, 5)
	exact := ExactWeighted(wg, 0)
	res := runTCPWorkload(t, Weighted(wg), 18)
	if res.Backend != "tcp" {
		t.Errorf("backend = %q, want tcp", res.Backend)
	}
	if rep := Compare(exact, res.Estimates, 0.05); rep.MaxAbs > 0.05 {
		t.Errorf("tcp weighted estimates off by %.4f > eps (tau=%d)", rep.MaxAbs, res.Tau)
	}
}

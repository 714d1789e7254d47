package betweenness

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
)

// --- capability discovery ---------------------------------------------------

// TestBackendCapabilities pins the workload x backend matrix: every built-in
// backend must report all three workload kinds, in the canonical order.
func TestBackendCapabilities(t *testing.T) {
	want := []WorkloadKind{WorkloadUndirected, WorkloadDirected, WorkloadWeighted}
	backends := []Executor{
		Sequential(),
		SharedMemory(),
		LocalMPI(2),
		TCP(0, []string{"localhost:1", "localhost:2"}),
	}
	for _, exec := range backends {
		caps := exec.Capabilities()
		if len(caps) != len(want) {
			t.Errorf("%s: %d capabilities, want %d", exec.Name(), len(caps), len(want))
			continue
		}
		for i, k := range want {
			if caps[i] != k {
				t.Errorf("%s: capability[%d] = %v, want %v", exec.Name(), i, caps[i], k)
			}
		}
	}
}

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

// --- typed dispatch errors --------------------------------------------------

// undirectedOnlyExec is a custom executor with deliberately narrow
// capabilities, standing in for the pre-redesign MPI backends.
type undirectedOnlyExec struct{}

func (undirectedOnlyExec) Name() string                 { return "undirected-only" }
func (undirectedOnlyExec) Capabilities() []WorkloadKind { return []WorkloadKind{WorkloadUndirected} }
func (e undirectedOnlyExec) Run(ctx context.Context, w Workload, p Params) (*Result, error) {
	if err := w.checkRunnable(e); err != nil {
		return nil, err
	}
	return Sequential().Run(ctx, w, p)
}

// TestUnsupportedWorkloadTypedError: dispatching a workload to a backend
// whose capabilities do not list its kind fails with the typed sentinel,
// and the message names both the backend and the kind.
func TestUnsupportedWorkloadTypedError(t *testing.T) {
	dg := directedCycle(10)
	wg := weightedGrid(t, 3, 3, 4)
	for _, tc := range []struct {
		kind string
		run  func() error
	}{
		{"directed", func() error {
			_, err := EstimateDirected(context.Background(), dg, WithExecutor(undirectedOnlyExec{}))
			return err
		}},
		{"weighted", func() error {
			_, err := EstimateWeighted(context.Background(), wg, WithExecutor(undirectedOnlyExec{}))
			return err
		}},
	} {
		err := tc.run()
		if !errors.Is(err, ErrUnsupportedWorkload) {
			t.Errorf("%s: err = %v, want errors.Is(..., ErrUnsupportedWorkload)", tc.kind, err)
			continue
		}
		var ue *UnsupportedWorkloadError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %q is not an *UnsupportedWorkloadError", tc.kind, err)
		} else if ue.Backend != "undirected-only" || ue.Kind.String() != tc.kind {
			t.Errorf("%s: error names backend %q kind %s, want undirected-only/%s", tc.kind, ue.Backend, ue.Kind, tc.kind)
		}
	}
	// The undirected workload still dispatches fine on the narrow backend.
	if _, err := Estimate(context.Background(), testGraph(t),
		WithEpsilon(0.05), WithExecutor(undirectedOnlyExec{})); err != nil {
		t.Errorf("undirected on undirected-only backend: %v", err)
	}
	// A direct Run call (bypassing EstimateWorkload) hits the same guard.
	if _, err := (undirectedOnlyExec{}).Run(context.Background(), Directed(dg), Params{}); !errors.Is(err, ErrUnsupportedWorkload) {
		t.Errorf("direct Run: err = %v, want ErrUnsupportedWorkload", err)
	}
}

// TestZeroWorkloadRejected: the zero Workload must be rejected by the front
// door and by every backend's Run guard, never panic.
func TestZeroWorkloadRejected(t *testing.T) {
	if _, err := EstimateWorkload(context.Background(), Workload{}); err == nil {
		t.Error("EstimateWorkload accepted the zero workload")
	}
	for _, exec := range []Executor{Sequential(), SharedMemory(), LocalMPI(2)} {
		if _, err := exec.Run(context.Background(), Workload{}, Params{}); err == nil {
			t.Errorf("%s.Run accepted the zero workload", exec.Name())
		}
	}
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
			results[rank], errs[rank] = EstimateWorkload(context.Background(), w,
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

// TestEstimateWorkloadUndirectedMatchesEstimate: the wrapper and the
// generic front door are the same code path — identical results.
func TestEstimateWorkloadUndirectedMatchesEstimate(t *testing.T) {
	g := testGraph(t)
	opts := []Option{WithEpsilon(0.05), WithSeed(23), WithExecutor(Sequential())}
	a, err := Estimate(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateWorkload(context.Background(), Undirected(g), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau {
		t.Fatalf("tau differs: %d vs %d", a.Tau, b.Tau)
	}
	for v := range a.Estimates {
		if a.Estimates[v] != b.Estimates[v] {
			t.Fatalf("estimate differs at vertex %d", v)
		}
	}
}

package betweenness

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/graph"
)

// testGraph returns a small connected social-network proxy.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.RMAT(graph.Graph500(9, 8, 17))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaults(t *testing.T) {
	s := defaultSettings()
	if s.Epsilon != 0.01 {
		t.Errorf("default epsilon = %g, want 0.01", s.Epsilon)
	}
	if s.Delta != 0.1 {
		t.Errorf("default delta = %g, want 0.1", s.Delta)
	}
	if s.Seed != 1 {
		t.Errorf("default seed = %d, want 1", s.Seed)
	}
	if s.Agg != AggIBarrierReduce {
		t.Errorf("default aggregation = %v, want %v", s.Agg, AggIBarrierReduce)
	}
	if name := s.exec.Name(); name != "shared-memory" {
		t.Errorf("default executor = %q, want shared-memory", name)
	}
}

func TestOptionValidation(t *testing.T) {
	g := testGraph(t)
	bad := map[string]Option{
		"eps zero":          WithEpsilon(0),
		"eps negative":      WithEpsilon(-0.1),
		"eps one":           WithEpsilon(1),
		"delta zero":        WithDelta(0),
		"delta one":         WithDelta(1),
		"threads negative":  WithThreads(-1),
		"topk zero":         WithTopK(0),
		"hierarchical zero": WithHierarchical(0),
		"vd zero":           WithVertexDiameter(0),
		"bfs cap negative":  WithDiameterBFSCap(-1),
		"agg unknown":       WithAggStrategy(AggStrategy(99)),
		"nil executor":      WithExecutor(nil),
	}
	for name, opt := range bad {
		if _, err := Estimate(context.Background(), g, opt); err == nil {
			t.Errorf("%s: Estimate accepted an invalid option", name)
		}
	}
}

func TestEstimateRejectsDegenerateInputs(t *testing.T) {
	if _, err := Estimate(context.Background(), nil); err == nil {
		t.Error("Estimate accepted a nil graph")
	}
	tiny := graph.NewBuilder(1).Build()
	if _, err := Estimate(context.Background(), tiny); err == nil {
		t.Error("Estimate accepted a 1-vertex graph")
	}
	g := testGraph(t)
	if _, err := Estimate(context.Background(), g, WithTopK(g.NumNodes())); err == nil {
		t.Error("Estimate accepted top-k = NumNodes")
	}
}

// TestBackendsAgreeWithExact validates the (eps, delta) guarantee of every
// in-process backend against Brandes on a fixed seed, which also pins
// seq-vs-shm parity: both must be within eps of the same ground truth.
func TestBackendsAgreeWithExact(t *testing.T) {
	g := testGraph(t)
	exact := Exact(g, 0)
	const eps = 0.03

	backends := []Executor{Sequential(), SharedMemory(), LocalMPI(2)}
	results := make(map[string]*Result, len(backends))
	for _, exec := range backends {
		res, err := Estimate(context.Background(), g,
			WithEpsilon(eps),
			WithDelta(0.1),
			WithSeed(7),
			WithThreads(2),
			WithExecutor(exec))
		if err != nil {
			t.Fatalf("%s: %v", exec.Name(), err)
		}
		if res.Backend != exec.Name() {
			t.Errorf("backend label = %q, want %q", res.Backend, exec.Name())
		}
		if len(res.Estimates) != g.NumNodes() {
			t.Fatalf("%s: %d estimates for %d vertices", exec.Name(), len(res.Estimates), g.NumNodes())
		}
		rep := Compare(exact, res.Estimates, eps)
		if rep.MaxAbs > eps {
			t.Errorf("%s: max abs error %.4f exceeds eps %.4f", exec.Name(), rep.MaxAbs, eps)
		}
		results[exec.Name()] = res
	}

	// Direct seq-vs-shm parity: identical omega (same diameter phase) and
	// estimates within 2*eps of each other.
	seq, shm := results["sequential"], results["shared-memory"]
	if seq.Omega != shm.Omega {
		t.Errorf("omega differs: seq %.0f vs shm %.0f", seq.Omega, shm.Omega)
	}
	if seq.VertexDiameter != shm.VertexDiameter {
		t.Errorf("vertex diameter differs: %d vs %d", seq.VertexDiameter, shm.VertexDiameter)
	}
	for v := range seq.Estimates {
		if d := math.Abs(seq.Estimates[v] - shm.Estimates[v]); d > 2*eps {
			t.Fatalf("vertex %d: |seq-shm| = %.4f > 2*eps", v, d)
		}
	}

	// The MPI backend must report distribution statistics; single-process
	// backends must not.
	if results["local-mpi"].Distributed == nil {
		t.Error("local-mpi: missing distributed stats")
	}
	for _, name := range []string{"sequential", "shared-memory"} {
		if results[name].Distributed != nil {
			t.Errorf("%s: unexpected distributed stats", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t)
	run := func() *Result {
		res, err := Estimate(context.Background(), g,
			WithEpsilon(0.05), WithSeed(42), WithExecutor(Sequential()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Tau != b.Tau {
		t.Fatalf("same seed, different tau: %d vs %d", a.Tau, b.Tau)
	}
	for v := range a.Estimates {
		if a.Estimates[v] != b.Estimates[v] {
			t.Fatalf("same seed, different estimate at vertex %d", v)
		}
	}
}

func TestTopK(t *testing.T) {
	g := testGraph(t)
	exact := Exact(g, 0)
	want := TopKOf(exact, 3)

	// Sequential backend: certified top-k stopping rule.
	res, err := Estimate(context.Background(), g,
		WithEpsilon(0.02), WithSeed(5), WithTopK(3), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 3 {
		t.Fatalf("certified top-k returned %d vertices, want 3", len(res.Top))
	}
	if res.Lower == nil || res.Upper == nil {
		t.Error("certified top-k missing confidence bounds")
	}
	if res.Top[0] != want[0] {
		t.Errorf("certified top-1 = %d, want %d", res.Top[0], want[0])
	}

	// Other backends derive Top from the final estimates.
	res, err = Estimate(context.Background(), g,
		WithEpsilon(0.02), WithSeed(5), WithTopK(3), WithExecutor(SharedMemory()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 3 {
		t.Fatalf("derived top-k returned %d vertices, want 3", len(res.Top))
	}
	if res.Lower != nil {
		t.Error("derived top-k should not carry confidence bounds")
	}
	if res.Top[0] != want[0] {
		t.Errorf("derived top-1 = %d, want %d", res.Top[0], want[0])
	}
}

func TestContextCancelledBeforeStart(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exec := range []Executor{Sequential(), SharedMemory(), LocalMPI(2)} {
		_, err := Estimate(ctx, g, WithEpsilon(0.05), WithExecutor(exec))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled ctx returned %v, want context.Canceled", exec.Name(), err)
		}
	}
}

// TestCancellationStopsSharedMemoryWithinOneEpoch cancels a demanding
// shared-memory run from its first progress snapshot and requires the
// estimate to abort promptly with ctx.Err() instead of running to
// completion (acceptance criterion of the public-API issue).
func TestCancellationStopsSharedMemoryWithinOneEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("demanding scale-11 instance; the directed/weighted cancellation tests cover -short")
	}
	// A graph and epsilon demanding enough that a full run takes far
	// longer than the couple of epochs this test allows.
	g := graph.RMAT(graph.Graph500(11, 8, 3))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var once sync.Once
	var cancelledAt time.Time
	res, err := Estimate(ctx, g,
		WithEpsilon(0.002),
		WithSeed(9),
		WithProgress(func(Snapshot) {
			once.Do(func() {
				cancelledAt = time.Now()
				cancel()
			})
		}),
		WithExecutor(SharedMemory()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned (res=%v, err=%v), want context.Canceled", res != nil, err)
	}
	if cancelledAt.IsZero() {
		t.Fatal("progress callback never fired")
	}
	if elapsed := time.Since(cancelledAt); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to take effect, want within one epoch", elapsed)
	}
}

func TestCancellationStopsLocalMPI(t *testing.T) {
	if testing.Short() {
		t.Skip("demanding scale-10 instance; skipped in -short (race CI)")
	}
	g := graph.RMAT(graph.Graph500(10, 8, 4))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = Estimate(ctx, g,
		WithEpsilon(0.002),
		WithSeed(2),
		WithThreads(2),
		WithProgress(func(Snapshot) { once.Do(cancel) }),
		WithExecutor(LocalMPI(2)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled local-mpi run returned %v, want context.Canceled", err)
	}
}

func TestProgressSnapshots(t *testing.T) {
	g := testGraph(t)
	var snaps []Snapshot
	_, err := Estimate(context.Background(), g,
		WithEpsilon(0.03), WithSeed(1),
		WithProgress(func(s Snapshot) { snaps = append(snaps, s) }),
		WithExecutor(SharedMemory()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Epoch <= snaps[i-1].Epoch || snaps[i].Tau < snaps[i-1].Tau {
			t.Fatalf("snapshots not monotone: %+v -> %+v", snaps[i-1], snaps[i])
		}
	}
}

// TestTCPBackend runs the TCP executor as two ranks of a localhost world,
// one goroutine per rank, and checks that rank 0 gets estimates while rank
// 1 gets statistics only.
func TestTCPBackend(t *testing.T) {
	g := testGraph(t)
	addrs := tcpWorld(t, 2)

	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = Estimate(context.Background(), g,
				WithEpsilon(0.05), WithSeed(6), WithThreads(2),
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
	for rank, res := range results {
		if res.Distributed == nil {
			t.Errorf("rank %d: missing distributed stats", rank)
		}
		if res.Backend != "tcp" {
			t.Errorf("rank %d: backend = %q, want tcp", rank, res.Backend)
		}
	}
	exact := Exact(g, 0)
	if rep := Compare(exact, results[0].Estimates, 0.05); rep.MaxAbs > 0.05 {
		t.Errorf("tcp estimates off by %.4f > eps", rep.MaxAbs)
	}
}

// TestTCPRemoteCancellation cancels rank 1 of a TCP world mid-run: the
// cancellation must gossip through the per-epoch aggregation so rank 1
// returns its own ctx error and rank 0 returns ErrRemoteCancelled.
func TestTCPRemoteCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("demanding scale-11 instance; skipped in -short (race CI)")
	}
	g := graph.RMAT(graph.Graph500(11, 8, 8))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	addrs := tcpWorld(t, 2)

	rank1Ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	ctxs := []context.Context{context.Background(), rank1Ctx}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// Demanding enough that an uncancelled run takes far longer
			// than rank 1's 500ms deadline.
			_, errs[rank] = Estimate(ctxs[rank], g,
				WithEpsilon(0.002), WithSeed(13), WithThreads(2),
				WithExecutor(TCP(rank, addrs)))
		}(rank)
	}
	wg.Wait()
	if !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Errorf("cancelled rank returned %v, want context.DeadlineExceeded", errs[1])
	}
	if !errors.Is(errs[0], ErrRemoteCancelled) {
		t.Errorf("remote rank returned %v, want ErrRemoteCancelled", errs[0])
	}
}

package betweenness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/rng"
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

// testLattice is a side x side road lattice reduced to its largest
// component; from side 16 up, its diameter makes Undirected sample it with
// the goal-directed kernel.
func testLattice(t *testing.T, side int) *graph.Graph {
	t.Helper()
	g, _, err := graph.LargestComponent(graph.Road(graph.RoadParams{Rows: side, Cols: side, DeleteProb: 0.1, Seed: 3}))
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
	if s.exec != SharedMemory() {
		t.Errorf("default executor = %+v, want SharedMemory()", s.exec)
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
		"zero executor":     WithExecutor(Executor{}),
	}
	for name, opt := range bad {
		if _, err := Estimate(context.Background(), Undirected(g), opt); err == nil {
			t.Errorf("%s: Estimate accepted an invalid option", name)
		}
	}
}

func TestEstimateRejectsDegenerateInputs(t *testing.T) {
	if _, err := Estimate(context.Background(), Undirected(nil)); err == nil {
		t.Error("Estimate accepted a nil graph")
	}
	tiny := graph.NewBuilder(1).Build()
	if _, err := Estimate(context.Background(), Undirected(tiny)); err == nil {
		t.Error("Estimate accepted a 1-vertex graph")
	}
	g := testGraph(t)
	if _, err := Estimate(context.Background(), Undirected(g), WithTopK(g.NumNodes())); err == nil {
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
		res, err := Estimate(context.Background(), Undirected(g),
			WithEpsilon(eps),
			WithDelta(0.1),
			WithSeed(7),
			WithThreads(2),
			WithExecutor(exec))
		if err != nil {
			t.Fatalf("%s: %v", label(exec), err)
		}
		if res.Backend != exec.Name() {
			t.Errorf("backend label = %q, want %q", res.Backend, exec.Name())
		}
		if len(res.Estimates) != g.NumNodes() {
			t.Fatalf("%s: %d estimates for %d vertices", label(exec), len(res.Estimates), g.NumNodes())
		}
		rep := Compare(exact, res.Estimates, eps)
		if rep.MaxAbs > eps {
			t.Errorf("%s: max abs error %.4f exceeds eps %.4f", label(exec), rep.MaxAbs, eps)
		}
		results[label(exec)] = res
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
		res, err := Estimate(context.Background(), Undirected(g),
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

// TestDeterminismHeapVsMapped: the sequential engine reads the graph only
// through its CSR slices, so the same seed must give a bit-identical result
// on a heap graph and on the same graph saved as BCSR and memory-mapped —
// on R-MAT with the bidirectional BFS and on a lattice with the goal
// kernel, which both graphs select alike.
func TestDeterminismHeapVsMapped(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"rmat": testGraph(t), "lattice": testLattice(t, 16)} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.bcsr")
			if err := graph.SaveFile(path, g); err != nil {
				t.Fatal(err)
			}
			m, err := graph.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run := func(g *graph.Graph) *Result {
				w := Undirected(g)
				if _, goal := w.inner.NewSampler(rng.NewRand(1)).(*bfs.GoalSampler); goal != (name == "lattice") {
					t.Fatalf("goal kernel selected: %v", goal)
				}
				res, err := Estimate(context.Background(), w,
					WithEpsilon(0.03), WithSeed(42), WithExecutor(Sequential()))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			heap, mapped := run(g), run(m.Graph())
			if heap.Tau != mapped.Tau || heap.Epochs != mapped.Epochs || heap.AchievedEps != mapped.AchievedEps {
				t.Fatalf("heap tau/epochs/achieved eps %d/%d/%v, mapped %d/%d/%v",
					heap.Tau, heap.Epochs, heap.AchievedEps, mapped.Tau, mapped.Epochs, mapped.AchievedEps)
			}
			for v := range heap.Estimates {
				if heap.Estimates[v] != mapped.Estimates[v] {
					t.Fatalf("vertex %d: heap %v, mapped %v", v, heap.Estimates[v], mapped.Estimates[v])
				}
			}
		})
	}
}

// TestStopAtOmega pins the omega cap of the check schedule, on the
// daemon-session benchmark's shape (R-MAT scale 12, eps 0.05), where the
// adaptive rule never fires before tau reaches omega. At one thread —
// Sequential, or SharedMemory with WithThreads(1), the same schedule — the
// run must stop on the first tau >= omega, not at the next scheduled check
// a whole epoch later; with two threads the other thread samples alongside
// thread 0, so the run stops at the first epoch end past omega.
func TestStopAtOmega(t *testing.T) {
	g, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(12, 16, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		exec    Executor
		threads int
	}{{Sequential(), 2}, {SharedMemory(), 1}, {SharedMemory(), 2}} {
		name := fmt.Sprintf("%s/T%d", label(c.exec), c.threads)
		res, err := Estimate(context.Background(), Undirected(g),
			WithEpsilon(0.05), WithSeed(1000), WithThreads(c.threads), WithExecutor(c.exec))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || float64(res.Tau) < res.Omega {
			t.Fatalf("%s: converged %v at tau %d, omega %.1f", name, res.Converged, res.Tau, res.Omega)
		}
		if want := int64(math.Ceil(res.Omega)); (c.exec == Sequential() || c.threads == 1) && res.Tau != want {
			t.Fatalf("%s: stopped at tau %d, want the first tau >= omega, %d", name, res.Tau, want)
		}
	}
}

func TestTopK(t *testing.T) {
	g := testGraph(t)
	exact := Exact(g, 0)
	want := TopKOf(exact, 3)

	// Every backend stops by the certified top-k rule.
	for _, exec := range []Executor{Sequential(), SharedMemory(), LocalMPI(2)} {
		res, err := Estimate(context.Background(), Undirected(g),
			WithEpsilon(0.02), WithSeed(5), WithTopK(3), WithThreads(2), WithExecutor(exec))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Top) != 3 {
			t.Fatalf("%s: certified top-k returned %d vertices, want 3", label(exec), len(res.Top))
		}
		if res.Lower == nil || res.Upper == nil {
			t.Errorf("%s: certified top-k missing confidence bounds", label(exec))
		}
		if res.Top[0] != want[0] {
			t.Errorf("%s: certified top-1 = %d, want %d", label(exec), res.Top[0], want[0])
		}
	}
}

func TestContextCancelledBeforeStart(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exec := range []Executor{Sequential(), SharedMemory(), LocalMPI(2)} {
		_, err := Estimate(ctx, Undirected(g), WithEpsilon(0.05), WithExecutor(exec))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled ctx returned %v, want context.Canceled", label(exec), err)
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
	res, err := Estimate(ctx, Undirected(g),
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
	_, err = Estimate(ctx, Undirected(g),
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
	_, err := Estimate(context.Background(), Undirected(g),
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
			results[rank], errs[rank] = Estimate(context.Background(), Undirected(g),
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

// runTCPPair runs Estimate as the two ranks of a localhost TCP world, rank
// r under ctxs[r], with rank 0's progress hook (only world rank 0 delivers
// progress) and the shared options, and returns both outcomes.
func runTCPPair(t *testing.T, g *graph.Graph, ctxs [2]context.Context, progress func(Snapshot), opts ...Option) ([2]*Result, [2]error) {
	t.Helper()
	addrs := tcpWorld(t, 2)
	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := append([]Option{WithExecutor(TCP(rank, addrs))}, opts...)
			if rank == 0 {
				o = append(o, WithProgress(progress))
			}
			results[rank], errs[rank] = Estimate(ctxs[rank], Undirected(g), o...)
		}(rank)
	}
	wg.Wait()
	return results, errs
}

// TestTCPTopKCertified: the certified top-k rule runs on a 2-rank TCP
// world as on every other backend. On a star the centre separates from the
// leaves, so rank 0's result must carry the bounds and the separation.
func TestTCPTopKCertified(t *testing.T) {
	edges := make([][2]graph.Node, 40)
	for i := range edges {
		edges[i] = [2]graph.Node{0, graph.Node(i + 1)}
	}
	star := graph.FromEdges(len(edges)+1, edges)
	bg := context.Background()
	results, errs := runTCPPair(t, star, [2]context.Context{bg, bg}, nil,
		WithEpsilon(0.02), WithSeed(3), WithThreads(2), WithTopK(1))
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	res := results[0]
	if res.Lower == nil || res.Upper == nil || !res.Separated {
		t.Fatalf("rank 0: bounds %v/%v, separated %v; want a certified separation",
			res.Lower != nil, res.Upper != nil, res.Separated)
	}
	if len(res.Top) != 1 || res.Top[0] != 0 {
		t.Fatalf("rank 0: top %v, want the centre", res.Top)
	}
	if res.Lower[0] < res.Upper[1] {
		t.Errorf("centre's lower bound %g below a leaf's upper bound %g", res.Lower[0], res.Upper[1])
	}
}

// TestTCPRemoteCancellation cancels rank 1 of a TCP world mid-run, from
// rank 0's first progress delivery, so the cancellation lands after the
// first epoch whatever the sampler's speed: it must gossip through the
// per-epoch aggregation so rank 1 returns its own ctx error and rank 0
// returns ErrRemoteCancelled.
func TestTCPRemoteCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("demanding scale-11 instance; skipped in -short (race CI)")
	}
	g := graph.RMAT(graph.Graph500(11, 8, 8))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	rank1Ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	// Demanding enough that the first epoch cannot meet the stopping rule.
	_, errs := runTCPPair(t, g, [2]context.Context{context.Background(), rank1Ctx},
		func(Snapshot) { once.Do(cancel) },
		WithEpsilon(0.002), WithSeed(13), WithThreads(2))
	if !errors.Is(errs[1], context.Canceled) {
		t.Errorf("cancelled rank returned %v, want context.Canceled", errs[1])
	}
	if !errors.Is(errs[0], ErrRemoteCancelled) {
		t.Errorf("remote rank returned %v, want ErrRemoteCancelled", errs[0])
	}
}

// TestTCPLateCancellation cancels rank 1 in the epoch where rank 0 decides
// to stop (the sample cap is reached), after rank 1 has sent that epoch's
// frame: the cancellation is too late to count, so both ranks must agree on
// the result and run the final barrier together instead of rank 0 waiting
// out the liveness timeout for a peer that left.
func TestTCPLateCancellation(t *testing.T) {
	g := testGraph(t)
	const maxSamples = 3000
	rank1Ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	results, errs := runTCPPair(t, g, [2]context.Context{context.Background(), rank1Ctx},
		func(s Snapshot) {
			if s.Tau >= maxSamples {
				cancel()
			}
		},
		WithEpsilon(0.005), WithSeed(3), WithThreads(1), WithMaxSamples(maxSamples))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("ranks took %v to agree; a rank waited for a departed peer", elapsed)
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v; a cancellation after the stop decision must not count", rank, err)
		}
	}
	if rank1Ctx.Err() == nil {
		t.Fatal("rank 1 was never cancelled: the run stopped before reaching the sample cap")
	}
	if res := results[0]; res.Tau < maxSamples || res.Converged {
		t.Fatalf("rank 0: tau %d converged %v, want a budget stop at >= %d samples", res.Tau, res.Converged, maxSamples)
	}
}

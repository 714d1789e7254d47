package betweenness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/rng"
)

// --- test graph constructors -----------------------------------------------

// directedCycle returns the directed cycle on n vertices.
func directedCycle(n int) *graph.Digraph {
	arcs := make([][2]graph.Node, n)
	for i := 0; i < n; i++ {
		arcs[i] = [2]graph.Node{graph.Node(i), graph.Node((i + 1) % n)}
	}
	return graph.FromArcs(n, arcs)
}

// sccCoreWithDAGFringe returns the largest SCC of a digraph whose core is a
// bidirectional ladder (vertices 0..core-1) and whose fringe is a DAG
// hanging off it: fringe vertices receive arcs from the core and point
// forward only, so LargestSCC must strip them.
func sccCoreWithDAGFringe(core, fringe int) *graph.Digraph {
	n := core + fringe
	var arcs [][2]graph.Node
	for i := 0; i < core; i++ {
		arcs = append(arcs,
			[2]graph.Node{graph.Node(i), graph.Node((i + 1) % core)},
			[2]graph.Node{graph.Node((i + 1) % core), graph.Node(i)})
	}
	// Extra chords make the core less symmetric.
	for i := 0; i+7 < core; i += 5 {
		arcs = append(arcs, [2]graph.Node{graph.Node(i), graph.Node(i + 7)})
	}
	for i := core; i < n; i++ {
		arcs = append(arcs, [2]graph.Node{graph.Node(i % core), graph.Node(i)})
		if i+1 < n {
			arcs = append(arcs, [2]graph.Node{graph.Node(i), graph.Node(i + 1)})
		}
	}
	g, _, err := graph.LargestSCC(graph.FromArcs(n, arcs))
	if err != nil {
		panic(err)
	}
	return g
}

// weightedGrid returns a rows x cols lattice with deterministic weights in
// [1, maxW] — the weighted analogue of the paper's road-network proxy.
func weightedGrid(t *testing.T, rows, cols int, maxW uint32) *graph.WGraph {
	t.Helper()
	at := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	w := func(i int) uint32 { return uint32(i*2654435761)%maxW + 1 }
	var edges []graph.WeightedEdge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r, c+1), W: w(len(edges))})
			}
			if r+1 < rows {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r+1, c), W: w(len(edges))})
			}
		}
	}
	g, err := graph.FromWeightedEdges(rows*cols, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- parity battery --------------------------------------------------------

// TestDirectedParityAgainstExact asserts that the directed workload matches the
// directed Brandes ground truth within eps on small digraphs, across the
// sequential and shared-memory executors and several seeds.
func TestDirectedParityAgainstExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Digraph
	}{
		{"cycle40", directedCycle(40)},
		{"scc-core", sccCoreWithDAGFringe(30, 20)},
		{"random-scc", graph.RandomDigraph(120, 700, 5)},
	}
	const eps = 0.05
	execs := []Executor{Sequential(), SharedMemory()}
	seeds := []uint64{3, 7, 11}
	for _, tc := range cases {
		exact := ExactDirected(tc.g, 0)
		for _, exec := range execs {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", tc.name, label(exec), seed), func(t *testing.T) {
					res, err := Estimate(context.Background(), Directed(tc.g),
						WithEpsilon(eps), WithDelta(0.1), WithSeed(seed), WithThreads(2),
						WithExecutor(exec))
					if err != nil {
						t.Fatal(err)
					}
					if res.Backend != exec.Name() {
						t.Errorf("backend label = %q, want %q", res.Backend, exec.Name())
					}
					if len(res.Estimates) != tc.g.NumNodes() {
						t.Fatalf("%d estimates for %d vertices", len(res.Estimates), tc.g.NumNodes())
					}
					if rep := Compare(exact, res.Estimates, eps); rep.MaxAbs > eps {
						t.Errorf("max abs error %.4f exceeds eps %.4f (tau=%d)", rep.MaxAbs, eps, res.Tau)
					}
				})
			}
		}
	}
}

// TestWeightedParityAgainstExact is the weighted counterpart: weighted
// grids and a random weighted graph against Dijkstra-Brandes.
func TestWeightedParityAgainstExact(t *testing.T) {
	rmat := graph.RMAT(graph.Graph500(7, 8, 21))
	lcc, _, err := graph.LargestComponent(rmat)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.WGraph
	}{
		{"grid8x8", weightedGrid(t, 8, 8, 9)},
		{"grid4x16", weightedGrid(t, 4, 16, 5)},
		{"random-rmat", graph.RandomWeights(lcc, 10, 2)},
	}
	const eps = 0.05
	execs := []Executor{Sequential(), SharedMemory()}
	seeds := []uint64{3, 7, 11}
	for _, tc := range cases {
		exact := ExactWeighted(tc.g, 0)
		for _, exec := range execs {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", tc.name, label(exec), seed), func(t *testing.T) {
					res, err := Estimate(context.Background(), Weighted(tc.g),
						WithEpsilon(eps), WithDelta(0.1), WithSeed(seed), WithThreads(2),
						WithExecutor(exec))
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Estimates) != tc.g.NumNodes() {
						t.Fatalf("%d estimates for %d vertices", len(res.Estimates), tc.g.NumNodes())
					}
					if rep := Compare(exact, res.Estimates, eps); rep.MaxAbs > eps {
						t.Errorf("max abs error %.4f exceeds eps %.4f (tau=%d)", rep.MaxAbs, eps, res.Tau)
					}
				})
			}
		}
	}
}

// TestCoverage is a coverage smoke of the (eps, delta) guarantee, one cell
// per workload x executor: over R seeds on one instance, the share of
// estimates whose max error exceeds eps must stay within delta plus a
// 3-sigma binomial tolerance. R is 200, 20 under -short.
//   - weighted-seq: a weighted R-MAT on the sequential engine. Its
//     omega-bound row is set where the adaptive rule never fires, so every
//     run stops at omega and its guarantee rests on the vertex-diameter
//     bound alone: it is the end-to-end check that sees an omega from a
//     wrong VD.
//   - lattice-seq, lattice-shm: a 16x16 road lattice, which the undirected
//     workload samples with the goal-directed kernel (asserted), on the
//     sequential and the two-thread shared-memory engine.
func TestCoverage(t *testing.T) {
	lcc, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(7, 8, 21)))
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.RandomWeights(lcc, 10, 3)
	lattice := testLattice(t, 16)
	weighted, road := Weighted(wg), Undirected(lattice)
	if _, ok := road.inner.NewSampler(rng.NewRand(1)).(*bfs.GoalSampler); !ok {
		t.Fatal("the lattice is not sampled with the goal-directed kernel")
	}
	exactW, exactRoad := ExactWeighted(wg, 0), Exact(lattice, 0)
	const delta = 0.1
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for _, c := range []struct {
		name       string
		w          Workload
		exact      []float64
		exec       Executor
		eps        float64
		omegaBound bool
	}{
		{"weighted-seq/adaptive", weighted, exactW, Sequential(), 0.05, false},
		{"weighted-seq/omega-bound", weighted, exactW, Sequential(), 0.04, true},
		{"lattice-seq", road, exactRoad, Sequential(), 0.03, false},
		{"lattice-shm", road, exactRoad, SharedMemory(), 0.03, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			failed, worst := 0, 0.0
			for seed := range uint64(runs) {
				res, err := Estimate(context.Background(), c.w, WithEpsilon(c.eps), WithDelta(delta),
					WithSeed(seed+1), WithThreads(2), WithExecutor(c.exec))
				if err != nil {
					t.Fatal(err)
				}
				if c.omegaBound && float64(res.Tau) < res.Omega {
					t.Fatalf("seed %d: adaptive stop at tau %d < omega %.0f; the row is not omega-bound", seed+1, res.Tau, res.Omega)
				}
				rep := Compare(c.exact, res.Estimates, c.eps)
				worst = max(worst, rep.MaxAbs)
				if rep.MaxAbs > c.eps {
					failed++
				}
			}
			share := float64(failed) / float64(runs)
			tol := 3 * math.Sqrt(delta*(1-delta)/float64(runs))
			t.Logf("%d of %d runs over eps %g (worst max error %.4f)", failed, runs, c.eps, worst)
			if share > delta+tol {
				t.Fatalf("%d of %d runs exceed eps %g: share %.3f > delta %g + %.3f", failed, runs, c.eps, share, delta, tol)
			}
		})
	}
}

// TestTopKCoverage is the coverage smoke of the certified top-k rule, one
// cell per workload x backend: over R seeds, the share of runs in which
// some exact score falls outside its [Lower, Upper] must stay within delta
// plus a 3-sigma binomial tolerance. R is 100, 20 under -short. The
// LocalMPI cells are the ones that test the bounds past omega: two ranks of
// two threads on a small machine can carry a run's last epoch to many
// times omega, where f and g no longer hold and the bounds must be the
// omega fallback's.
func TestTopKCoverage(t *testing.T) {
	lcc, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(7, 8, 21)))
	if err != nil {
		t.Fatal(err)
	}
	dg := graph.RandomDigraph(150, 900, 9)
	wg := graph.RandomWeights(lcc, 10, 3)
	const delta, eps, k = 0.1, 0.02, 3
	runs := 100
	if testing.Short() {
		runs = 20
	}
	for _, w := range []struct {
		name  string
		w     Workload
		exact []float64
	}{
		{"undirected", Undirected(lcc), Exact(lcc, 0)},
		{"directed", Directed(dg), ExactDirected(dg, 0)},
		{"weighted", Weighted(wg), ExactWeighted(wg, 0)},
	} {
		for _, exec := range []Executor{Sequential(), SharedMemory(), LocalMPI(2)} {
			t.Run(w.name+"/"+label(exec), func(t *testing.T) {
				failed := 0
				for seed := range uint64(runs) {
					res, err := Estimate(context.Background(), w.w, WithEpsilon(eps), WithDelta(delta),
						WithSeed(seed+1), WithTopK(k), WithThreads(2), WithExecutor(exec))
					if err != nil {
						t.Fatal(err)
					}
					if res.Lower == nil || res.Upper == nil || len(res.Top) != k {
						t.Fatalf("seed %d: not a certified top-%d result (bounds %v, top %v)", seed+1, k, res.Lower != nil, res.Top)
					}
					for v, b := range w.exact {
						if b < res.Lower[v]-1e-9 || b > res.Upper[v]+1e-9 {
							failed++
							break
						}
					}
				}
				share := float64(failed) / float64(runs)
				tol := 3 * math.Sqrt(delta*(1-delta)/float64(runs))
				t.Logf("%d of %d runs with an exact score outside its bounds", failed, runs)
				if share > delta+tol {
					t.Fatalf("%d of %d runs break the bounds: share %.3f > delta %g + %.3f", failed, runs, share, delta, tol)
				}
			})
		}
	}
}

// TestSeqVsShmParity pins Sequential against SharedMemory on every
// workload kind. Sequential is SharedMemory pinned at one thread, so it
// returns SharedMemory at WithThreads(1) bit for bit, under the same
// Backend; at two threads the two share omega (the same diameter bound)
// and their estimates lie within 2*eps of each other.
func TestSeqVsShmParity(t *testing.T) {
	lcc, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(7, 8, 21)))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.04
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"undirected", Undirected(lcc)},
		{"directed", Directed(graph.RandomDigraph(150, 900, 9))},
		{"weighted", Weighted(graph.RandomWeights(lcc, 10, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(exec Executor, threads int) *Result {
				res, err := Estimate(context.Background(), tc.w,
					WithEpsilon(eps), WithSeed(13), WithThreads(threads), WithExecutor(exec))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq, one, shm := run(Sequential(), 2), run(SharedMemory(), 1), run(SharedMemory(), 2)
			if seq.Backend != one.Backend || seq.Tau != one.Tau || seq.Epochs != one.Epochs ||
				!reflect.DeepEqual(seq.Estimates, one.Estimates) {
				t.Errorf("Sequential vs SharedMemory at one thread: backend %q/%q tau %d/%d epochs %d/%d, estimates equal %v",
					seq.Backend, one.Backend, seq.Tau, one.Tau, seq.Epochs, one.Epochs,
					reflect.DeepEqual(seq.Estimates, one.Estimates))
			}
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
		})
	}
}

// TestDirectedDeterminism: same seed, same backend, same result.
func TestDirectedDeterminism(t *testing.T) {
	g := graph.RandomDigraph(100, 500, 4)
	run := func() *Result {
		res, err := Estimate(context.Background(), Directed(g),
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

// TestWeightedTopKCertified: WithTopK on the weighted path stops by the
// certified top-k rule, fills Result.Top, carries the confidence bounds,
// and agrees with the exact top-1.
func TestWeightedTopKCertified(t *testing.T) {
	g := weightedGrid(t, 6, 6, 7)
	exact := ExactWeighted(g, 0)
	want := TopKOf(exact, 3)
	res, err := Estimate(context.Background(), Weighted(g),
		WithEpsilon(0.02), WithSeed(5), WithTopK(3), WithExecutor(SharedMemory()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 3 {
		t.Fatalf("top-k returned %d vertices, want 3", len(res.Top))
	}
	if res.Top[0] != want[0] {
		t.Errorf("top-1 = %d, want %d", res.Top[0], want[0])
	}
	if res.Lower == nil || res.Upper == nil {
		t.Error("certified top-k missing confidence bounds")
	}
}

// TestDiameterPhaseKnobs pins the phase-1 plumbing through the workload
// abstraction: on every workload kind a Workload resolves its bound once,
// so a second estimate on the same value skips the phase and reuses the
// bound.
func TestDiameterPhaseKnobs(t *testing.T) {
	g := testGraph(t)
	const eps = 0.05
	cases := []struct {
		name string
		w    Workload
		exec Executor
	}{
		{"undirected", Undirected(g), Sequential()},
		{"directed", Directed(directedCycle(30)), Sequential()},
		{"weighted", Weighted(weightedGrid(t, 4, 4, 3)), SharedMemory()},
	}
	for _, c := range cases {
		var first int
		for run := range 2 {
			res, err := Estimate(context.Background(), c.w,
				WithEpsilon(eps), WithSeed(3+uint64(run)), WithExecutor(c.exec))
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = res.VertexDiameter
			} else if res.Timings.Diameter != 0 || res.VertexDiameter != first {
				t.Errorf("%s: run %d on the same workload ran the diameter phase again (%v, vd %d -> %d)",
					c.name, run, res.Timings.Diameter, first, res.VertexDiameter)
			}
		}
		if c.name == "undirected" && first != graph.VertexDiameter(g) {
			t.Errorf("undirected: vd = %d, want the exact %d", first, graph.VertexDiameter(g))
		}
	}
}

// --- input validation and dispatch -----------------------------------------

func TestDirectedWeightedRejectDegenerateInputs(t *testing.T) {
	if _, err := Estimate(context.Background(), Directed(nil)); err == nil {
		t.Error("directed Estimate accepted a nil digraph")
	}
	if _, err := Estimate(context.Background(), Weighted(nil)); err == nil {
		t.Error("weighted Estimate accepted a nil weighted graph")
	}
	if _, err := Estimate(context.Background(), Directed(graph.FromArcs(1, nil))); err == nil {
		t.Error("directed Estimate accepted a 1-vertex digraph")
	}
	tiny, err := graph.FromWeightedEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(context.Background(), Weighted(tiny)); err == nil {
		t.Error("weighted Estimate accepted a 1-vertex graph")
	}

	// Not strongly connected: a one-way path.
	path := graph.FromArcs(3, [][2]graph.Node{{0, 1}, {1, 2}})
	if _, err := Estimate(context.Background(), Directed(path)); err == nil {
		t.Error("directed Estimate accepted a non-strongly-connected digraph")
	}

	// Disconnected weighted graph: two separate edges.
	disc, err := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(context.Background(), Weighted(disc)); err == nil {
		t.Error("weighted Estimate accepted a disconnected graph")
	}
}

// TestDirectedWeightedBackendDispatch: since the workload-generic executor
// contract, the MPI backends run the directed and weighted workloads too —
// dispatching them must succeed and satisfy the (eps, delta) guarantee,
// not error out as before the redesign.
func TestDirectedWeightedBackendDispatch(t *testing.T) {
	dg := sccCoreWithDAGFringe(30, 20)
	wg := weightedGrid(t, 6, 6, 4)
	dexact, wexact := ExactDirected(dg, 0), ExactWeighted(wg, 0)
	const eps = 0.05
	exec := LocalMPI(2)
	dres, err := Estimate(context.Background(), Directed(dg),
		WithEpsilon(eps), WithSeed(3), WithThreads(2), WithExecutor(exec))
	if err != nil {
		t.Fatalf("%s: directed Estimate: %v", label(exec), err)
	}
	if rep := Compare(dexact, dres.Estimates, eps); rep.MaxAbs > eps {
		t.Errorf("%s directed: max abs error %.4f exceeds eps (tau=%d)", label(exec), rep.MaxAbs, dres.Tau)
	}
	if dres.Distributed == nil {
		t.Errorf("%s directed: missing distributed stats", label(exec))
	}
	wres, err := Estimate(context.Background(), Weighted(wg),
		WithEpsilon(eps), WithSeed(3), WithThreads(2), WithExecutor(exec))
	if err != nil {
		t.Fatalf("%s: weighted Estimate: %v", label(exec), err)
	}
	if rep := Compare(wexact, wres.Estimates, eps); rep.MaxAbs > eps {
		t.Errorf("%s weighted: max abs error %.4f exceeds eps (tau=%d)", label(exec), rep.MaxAbs, wres.Tau)
	}
	// Invalid options must fail on these workloads exactly as on the
	// undirected one.
	if _, err := Estimate(context.Background(), Directed(dg), WithEpsilon(0)); err == nil {
		t.Error("directed Estimate accepted an invalid option")
	}
	if _, err := Estimate(context.Background(), Weighted(wg), WithTopK(wg.NumNodes())); err == nil {
		t.Error("weighted Estimate accepted top-k = NumNodes")
	}
}

// --- cancellation ----------------------------------------------------------

func TestDirectedWeightedContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dg := graph.RandomDigraph(100, 500, 1)
	wg := weightedGrid(t, 8, 8, 5)
	for _, exec := range []Executor{Sequential(), SharedMemory()} {
		if _, err := Estimate(ctx, Directed(dg), WithEpsilon(0.05), WithExecutor(exec)); !errors.Is(err, context.Canceled) {
			t.Errorf("directed/%s: cancelled ctx returned %v, want context.Canceled", label(exec), err)
		}
		if _, err := Estimate(ctx, Weighted(wg), WithEpsilon(0.05), WithExecutor(exec)); !errors.Is(err, context.Canceled) {
			t.Errorf("weighted/%s: cancelled ctx returned %v, want context.Canceled", label(exec), err)
		}
	}
}

// TestCancellationStopsDirectedEstimate cancels a demanding directed run
// from its first progress snapshot and requires a prompt ctx.Err() return,
// mirroring the undirected cancellation test.
func TestCancellationStopsDirectedEstimate(t *testing.T) {
	g := graph.RandomDigraph(3000, 24000, 6)
	for _, exec := range []Executor{Sequential(), SharedMemory()} {
		t.Run(label(exec), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			var cancelledAt time.Time
			_, err := Estimate(ctx, Directed(g),
				WithEpsilon(0.002),
				WithSeed(9),
				WithThreads(2),
				WithProgress(func(Snapshot) {
					once.Do(func() {
						cancelledAt = time.Now()
						cancel()
					})
				}),
				WithExecutor(exec))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			if cancelledAt.IsZero() {
				t.Fatal("progress callback never fired")
			}
			if elapsed := time.Since(cancelledAt); elapsed > 10*time.Second {
				t.Errorf("cancellation took %v to take effect, want within one epoch", elapsed)
			}
		})
	}
}

// TestCancellationStopsWeightedEstimate is the weighted counterpart. The
// Dijkstra-based calibration phase is the slow part, so the instance is
// trimmed in -short (the directed cancellation test still runs there).
func TestCancellationStopsWeightedEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second weighted calibration; skipped in -short (race CI)")
	}
	base := graph.Road(graph.RoadParams{Rows: 40, Cols: 40, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: 3})
	lcc, _, err := graph.LargestComponent(base)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomWeights(lcc, 10, 8)
	for _, exec := range []Executor{Sequential(), SharedMemory()} {
		t.Run(label(exec), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			var cancelledAt time.Time
			_, err := Estimate(ctx, Weighted(g),
				WithEpsilon(0.002),
				WithSeed(9),
				WithThreads(2),
				WithProgress(func(Snapshot) {
					once.Do(func() {
						cancelledAt = time.Now()
						cancel()
					})
				}),
				WithExecutor(exec))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			if cancelledAt.IsZero() {
				t.Fatal("progress callback never fired")
			}
			if elapsed := time.Since(cancelledAt); elapsed > 10*time.Second {
				t.Errorf("cancellation took %v to take effect, want within one epoch", elapsed)
			}
		})
	}
}

// TestDirectedProgressSnapshots: the OnEpoch hook threads through the new
// paths and delivers monotone snapshots.
func TestDirectedProgressSnapshots(t *testing.T) {
	g := graph.RandomDigraph(120, 700, 5)
	var snaps []Snapshot
	_, err := Estimate(context.Background(), Directed(g),
		WithEpsilon(0.05), WithSeed(1),
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

// TestDirectRunEnforcesValidation: session construction applies the
// workload's admission rule on every backend, or the (eps, delta) guarantee
// would be silently void. TCP is included: validation runs before any dial.
func TestDirectRunEnforcesValidation(t *testing.T) {
	path := graph.FromArcs(3, [][2]graph.Node{{0, 1}, {1, 2}})
	disc, err := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range allBackends() {
		if _, err := NewEstimator(Directed(path), WithExecutor(exec)); err == nil {
			t.Errorf("%s: accepted a non-strongly-connected digraph", label(exec))
		}
		if _, err := NewEstimator(Weighted(disc), WithExecutor(exec)); err == nil {
			t.Errorf("%s: accepted a disconnected weighted graph", label(exec))
		}
	}
}

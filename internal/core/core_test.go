package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/brandes"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
)

func testGraph() *graph.Graph {
	g := gen.RMAT(gen.Graph500(8, 8, 17))
	g, _ = graph.LargestComponent(g)
	return g
}

func guaranteeCheck(t *testing.T, g *graph.Graph, res *kadabra.Result, eps float64) {
	t.Helper()
	exact := brandes.Parallel(g, 1)
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - res.Betweenness[v]); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("max error %f exceeds eps %f (tau=%d)", worst, eps, res.Tau)
	}
}

func TestAlgorithm2SingleProcessSingleThread(t *testing.T) {
	g := testGraph()
	eps := 0.04
	res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 1, Config{Config: kadabra.Config{Eps: eps, Delta: 0.1, Seed: 3}, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	guaranteeCheck(t, g, res.Res, eps)
}

func TestAlgorithm2MultiProcessMultiThread(t *testing.T) {
	g := testGraph()
	eps := 0.04
	// Threads 0 is the default of one sampling thread per rank: the paper's
	// Algorithm 1.
	for _, pc := range []struct{ p, t int }{{1, 4}, {2, 2}, {4, 2}, {2, 0}, {4, 0}} {
		res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), pc.p,
			Config{Config: kadabra.Config{Eps: eps, Delta: 0.1, Seed: 4}, Threads: pc.t})
		if err != nil {
			t.Fatalf("p=%d t=%d: %v", pc.p, pc.t, err)
		}
		guaranteeCheck(t, g, res.Res, eps)
		if res.Res.Tau <= 0 {
			t.Fatalf("p=%d t=%d: tau=%d", pc.p, pc.t, res.Res.Tau)
		}
		if pc.p > 1 && (res.Stats.Epochs < 1 || res.Stats.CommVolumePerEpoch <= 0) {
			t.Fatalf("p=%d t=%d: epochs %d, communication volume %d", pc.p, pc.t,
				res.Stats.Epochs, res.Stats.CommVolumePerEpoch)
		}
	}
}

func TestAlgorithm2Hierarchical(t *testing.T) {
	g := testGraph()
	eps := 0.04
	// 4 processes grouped as 2 "nodes" x 2 "sockets" (paper §IV-E).
	res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 4, Config{
		Config:       kadabra.Config{Eps: eps, Delta: 0.1, Seed: 5},
		Threads:      2,
		RanksPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	guaranteeCheck(t, g, res.Res, eps)
}

func TestAlgorithm2AllStrategies(t *testing.T) {
	g := testGraph()
	eps := 0.05
	for _, pc := range []struct{ p, t int }{{2, 2}, {3, 1}} {
		res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), pc.p, Config{
			Config:  kadabra.Config{Eps: eps, Delta: 0.1, Seed: 6},
			Threads: pc.t,
		})
		if err != nil {
			t.Fatalf("p=%d t=%d: %v", pc.p, pc.t, err)
		}
		guaranteeCheck(t, g, res.Res, eps)
	}
}

func TestAlgorithm2DegenerateStopAfterCalibration(t *testing.T) {
	// A tiny graph with very loose eps: calibration samples alone exceed
	// omega, so the algorithm must stop before any epoch.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 2, Config{
		Config:  kadabra.Config{Eps: 0.3, Delta: 0.2, Seed: 8, StartFactor: 1},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Res == nil {
		t.Fatal("no result")
	}
	if res.Stats.Epochs != 0 {
		t.Fatalf("expected 0 epochs, got %d", res.Stats.Epochs)
	}
}

func TestAlgorithm2RejectsTinyGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	if _, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 1, Config{}); err == nil {
		t.Fatal("singleton accepted")
	}
}

func TestRunLocalRejectsZeroProcs(t *testing.T) {
	if _, err := runFresh(context.Background(), kadabra.UndirectedWorkload(testGraph()), 0, Config{}); err == nil {
		t.Fatal("0 processes accepted")
	}
}

func TestResultConsistencyAcrossRanks(t *testing.T) {
	// tau reported at rank 0 must equal the consistent state used for the
	// scores: sum(btilde) * tau must be an integer (total internal-vertex
	// count), and every score in [0,1].
	g := testGraph()
	res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 3, Config{
		Config:  kadabra.Config{Eps: 0.05, Delta: 0.1, Seed: 9},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range res.Res.Betweenness {
		if b < 0 || b > 1 {
			t.Fatalf("score out of range: %f", b)
		}
		sum += b * float64(res.Res.Tau)
	}
	if math.Abs(sum-math.Round(sum)) > 1e-6 {
		t.Fatalf("scores*tau not integral: %f", sum)
	}
}

func TestAlgorithm2OverTCP(t *testing.T) {
	// Run Algorithm 2 over genuine TCP ranks within this process.
	g := testGraph()
	addrs := freeAddrs(t, 2)
	eps := 0.05
	var mu sync.Mutex
	var rootRes *Result
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, closer, err := connectTCPForTest(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer closer.Close()
			res, err := algorithm2Fresh(context.Background(), kadabra.UndirectedWorkload(g), comm, Config{
				Config:  kadabra.Config{Eps: eps, Delta: 0.1, Seed: 10},
				Threads: 2,
			})
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = comm.Barrier()
			if r == 0 {
				mu.Lock()
				rootRes = res
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	guaranteeCheck(t, g, rootRes.Res, eps)
}

func TestTerminationIsPrompt(t *testing.T) {
	// The stopping condition guarantees termination at tau >= omega; the
	// algorithm must stop within a handful of epochs once omega is reached
	// (overshoot is bounded by one epoch's intake, which is additive, not
	// multiplicative).
	g := testGraph()
	for _, p := range []int{1, 2, 4} {
		res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), p, Config{
			Config:  kadabra.Config{Eps: 0.05, Delta: 0.1, Seed: 11},
			Threads: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Res.Tau <= 0 {
			t.Fatalf("p=%d: tau=%d", p, res.Res.Tau)
		}
		if res.Stats.Epochs > 100 {
			t.Fatalf("p=%d: %d epochs for omega=%f — stopping condition not engaging",
				p, res.Stats.Epochs, res.Res.Omega)
		}
	}
}

func TestOnEpochHook(t *testing.T) {
	g := testGraph()
	var epochs []int
	var taus []int64
	var achieved []float64
	_, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 2, Config{
		Config: kadabra.Config{Eps: 0.03, Delta: 0.1, Seed: 21, OnEpoch: func(p kadabra.Progress) {
			epochs = append(epochs, p.Epoch)
			taus = append(taus, p.Tau)
			achieved = append(achieved, p.AchievedEps)
		}},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("OnEpoch never invoked")
	}
	for i, eps := range achieved {
		if eps <= 0 || eps > 1 {
			t.Fatalf("epoch %d: achieved eps %g outside (0, 1]", epochs[i], eps)
		}
	}
	for i := 1; i < len(taus); i++ {
		if taus[i] <= taus[i-1] {
			t.Fatalf("tau not monotone across epochs: %v", taus)
		}
		if epochs[i] != epochs[i-1]+1 {
			t.Fatalf("epoch indices not consecutive: %v", epochs)
		}
	}
}

// --- workload-generic driver ------------------------------------------------
// The distributed algorithms take a kadabra.Workload, so the directed and
// weighted scenarios (paper footnote 1) run through the same epoch-reduce
// machinery as the undirected one. These tests pin the (eps, delta)
// guarantee of both scenarios against exact Brandes.

func testDigraph() *graph.Digraph {
	dg := gen.RandomDigraph(150, 900, 5)
	dg, _ = graph.LargestSCC(dg)
	return dg
}

func testWGraph(t *testing.T) *graph.WGraph {
	t.Helper()
	const rows, cols = 8, 8
	at := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	var edges []graph.WeightedEdge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r, c+1), W: uint32(len(edges)*2654435761)%7 + 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r+1, c), W: uint32(len(edges)*2654435761)%7 + 1})
			}
		}
	}
	g, err := graph.FromWeightedEdges(rows*cols, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func maxAbsErr(exact, got []float64) float64 {
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - got[v]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestDistributedDirectedWorkload(t *testing.T) {
	dg := testDigraph()
	exact := brandes.ParallelDirected(dg, 1)
	const eps = 0.05
	res, err := runFresh(context.Background(), kadabra.DirectedWorkload(dg), 2, Config{
		Config:  kadabra.Config{Eps: eps, Delta: 0.1, Seed: 31},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxAbsErr(exact, res.Res.Betweenness); worst > eps {
		t.Errorf("max error %f exceeds eps %f (tau=%d)", worst, eps, res.Res.Tau)
	}
}

func TestDistributedWeightedWorkload(t *testing.T) {
	wg := testWGraph(t)
	exact := brandes.ParallelWeighted(wg, 1)
	const eps = 0.05
	res, err := runFresh(context.Background(), kadabra.WeightedWorkload(wg), 2, Config{
		Config:  kadabra.Config{Eps: eps, Delta: 0.1, Seed: 32},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxAbsErr(exact, res.Res.Betweenness); worst > eps {
		t.Errorf("max error %f exceeds eps %f (tau=%d)", worst, eps, res.Res.Tau)
	}
}

func TestRunLocalRejectsZeroWorkload(t *testing.T) {
	if _, err := runFresh(context.Background(), kadabra.Workload{}, 1, Config{}); err == nil {
		t.Fatal("zero workload accepted")
	}
}

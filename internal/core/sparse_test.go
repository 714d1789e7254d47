package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// The distributed dense-vs-sparse battery. With Threads=1, NoOverlap, and
// the blocking aggregation strategy, every rank takes exactly n0 samples
// per epoch regardless of scheduling or network timing, so two runs with
// the same seed are bit-identical — which lets the sparse wire pipeline
// (AppendWire → ReduceMerge/MergeWire → FoldWire) be checked against the
// forced-dense path end to end, over the in-process world and over real
// TCP.

func deterministicCfg(seed uint64, dense bool) Config {
	return Config{
		Config:    kadabra.Config{Eps: 0.05, Delta: 0.1, Seed: seed, DenseFrames: dense},
		Threads:   1,
		NoOverlap: true,
		Strategy:  AggBlocking,
	}
}

func coreTestWorkloads(t testing.TB) map[string]kadabra.Workload {
	t.Helper()
	var wg *graph.WGraph
	if tt, ok := t.(*testing.T); ok {
		wg = testWGraph(tt)
	}
	m := map[string]kadabra.Workload{
		"undirected": kadabra.UndirectedWorkload(testGraph()),
		"directed":   kadabra.DirectedWorkload(testDigraph()),
	}
	if wg != nil {
		m["weighted"] = kadabra.WeightedWorkload(wg)
	}
	return m
}

func assertBitIdenticalCore(t *testing.T, name string, sparse, dense *Result) {
	t.Helper()
	if sparse.Res == nil || dense.Res == nil {
		t.Fatalf("%s: missing rank-0 result", name)
	}
	if sparse.Res.Tau != dense.Res.Tau {
		t.Fatalf("%s: tau sparse %d dense %d", name, sparse.Res.Tau, dense.Res.Tau)
	}
	if sparse.Stats.Epochs != dense.Stats.Epochs {
		t.Fatalf("%s: epochs sparse %d dense %d", name, sparse.Stats.Epochs, dense.Stats.Epochs)
	}
	for v := range sparse.Res.Betweenness {
		if sparse.Res.Betweenness[v] != dense.Res.Betweenness[v] {
			t.Fatalf("%s: betweenness[%d] sparse %v dense %v",
				name, v, sparse.Res.Betweenness[v], dense.Res.Betweenness[v])
		}
	}
}

func TestDenseSparseEquivalenceLocalMPI(t *testing.T) {
	for name, w := range coreTestWorkloads(t) {
		sparse, err := runFresh(context.Background(), w, 2, deterministicCfg(41, false))
		if err != nil {
			t.Fatalf("%s sparse: %v", name, err)
		}
		dense, err := runFresh(context.Background(), w, 2, deterministicCfg(41, true))
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		assertBitIdenticalCore(t, name, sparse, dense)
	}
}

// runTCPWorld executes fn collectively over a fresh 2-rank TCP world and
// returns rank 0's result.
func runTCPWorld(t *testing.T, run func(comm *mpi.Comm) (*Result, error)) *Result {
	t.Helper()
	addrs := freeAddrs(t, 2)
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, closer, err := connectTCPForTest(rank, addrs)
			if err != nil {
				errs[rank] = err
				return
			}
			defer closer.Close()
			results[rank], errs[rank] = run(comm)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results[0]
}

func TestDenseSparseEquivalenceTCP(t *testing.T) {
	for name, w := range coreTestWorkloads(t) {
		sparse := runTCPWorld(t, func(comm *mpi.Comm) (*Result, error) {
			return algorithm2Fresh(context.Background(), w, comm, deterministicCfg(43, false))
		})
		dense := runTCPWorld(t, func(comm *mpi.Comm) (*Result, error) {
			return algorithm2Fresh(context.Background(), w, comm, deterministicCfg(43, true))
		})
		assertBitIdenticalCore(t, name, sparse, dense)
	}
}

// TestSparseWireBytesLocalMPI checks the point of the wire format: on a
// graph large enough that an epoch touches a vanishing fraction of the
// vertices, the encoded reduce frames must be a small fraction of the 8·n
// dense frame, per rank-epoch.
func TestSparseWireBytesLocalMPI(t *testing.T) {
	g := gen.RMAT(gen.Graph500(15, 8, 3))
	g, _ = graph.LargestComponent(g)
	n := g.NumNodes()
	cfg := deterministicCfg(51, false)
	cfg.VertexDiameter = 24 // skip the diameter phase; any valid bound works
	res, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Epochs == 0 {
		t.Fatal("run finished without epochs; enlarge the configuration")
	}
	perEpoch := res.Stats.WireBytes / int64(res.Stats.Epochs)
	denseBytes := int64(8 * n)
	if perEpoch*4 >= denseBytes {
		t.Fatalf("sparse frames %d B/epoch not « dense %d B (n=%d, epochs=%d)",
			perEpoch, denseBytes, n, res.Stats.Epochs)
	}

	cfg.DenseFrames = true
	dres, err := runFresh(context.Background(), kadabra.UndirectedWorkload(g), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	densePerEpoch := dres.Stats.WireBytes / int64(dres.Stats.Epochs)
	if densePerEpoch < denseBytes {
		t.Fatalf("forced-dense frames only %d B/epoch, expected >= %d", densePerEpoch, denseBytes)
	}
}

// TestSparseWireBytesTCP100k is the acceptance configuration: a
// 100k-vertex graph at the default epoch length over a genuine 2-rank TCP
// world — the backend where dense 8·n frames hurt most (800 kB per rank
// per epoch). The sparse frames must come in far below that.
func TestSparseWireBytesTCP100k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-vertex graph; skipped in -short (race CI)")
	}
	g := gen.RMAT(gen.Graph500(18, 8, 3)) // 262k vertices before LCC
	g, _ = graph.LargestComponent(g)
	n := g.NumNodes()
	if n < 100_000 {
		t.Fatalf("test graph too small: %d vertices", n)
	}
	w := kadabra.UndirectedWorkload(g)
	cfg := deterministicCfg(53, false)
	cfg.Eps = 0.1 // a short run: the byte profile per epoch is what matters
	cfg.VertexDiameter = 24
	res := runTCPWorld(t, func(comm *mpi.Comm) (*Result, error) {
		return algorithm2Fresh(context.Background(), w, comm, cfg)
	})
	if res.Stats.Epochs == 0 {
		t.Fatal("run finished without epochs")
	}
	perEpoch := res.Stats.WireBytes / int64(res.Stats.Epochs)
	denseBytes := int64(8 * n) // 800 kB at n=100k
	if perEpoch*10 >= denseBytes {
		t.Fatalf("TCP sparse frames %d B/rank-epoch not « dense %d B (n=%d, epochs=%d)",
			perEpoch, denseBytes, n, res.Stats.Epochs)
	}
	t.Logf("n=%d: %d B/rank-epoch sparse vs %d B dense (%.1fx smaller), %d epochs",
		n, perEpoch, denseBytes, float64(denseBytes)/float64(perEpoch), res.Stats.Epochs)
}

package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// The distributed dense-reference battery. With Threads=1 and NoOverlap
// (the barrier poll samples nothing), every rank takes exactly n0 samples
// per epoch regardless of scheduling or network timing and every sample a
// kernel draws is reduced, so the whole wire pipeline (AppendWire →
// ReduceMerge/MergeWire → FoldWire) can be checked end to end, over the
// in-process world and over real TCP, against the same samples summed into
// a plain []int64 that never saw a frame: on the ~200-vertex test graphs a
// default epoch's frames ship dense on their own, and on a 2^11-vertex one
// at the minimum epoch length they ship sparse.

func deterministicCfg(seed uint64) Config {
	return Config{
		Config:    kadabra.Config{Eps: 0.05, Delta: 0.1, Seed: seed},
		Threads:   1,
		NoOverlap: true,
	}
}

// denseRef sums what every kernel of every rank draws; the ranks of a test
// world are goroutines of one process, hence the lock.
type denseRef struct {
	mu  sync.Mutex
	tau int64
	c   []int64
}

type refSampler struct {
	inner kadabra.Sampler
	ref   *denseRef
}

func (r refSampler) Sample() ([]graph.Node, bool) {
	internal, ok := r.inner.Sample()
	r.ref.mu.Lock()
	r.ref.tau++
	for _, v := range internal {
		r.ref.c[v]++
	}
	r.ref.mu.Unlock()
	return internal, ok
}

// denseRefBattery runs every workload through run with its kernels wrapped
// to feed a fresh reference, and compares rank 0's result with it. The
// average reduce frame must be on the path the case is there for.
func denseRefBattery(t *testing.T, seed uint64, run func(kadabra.Workload, Config) *Result) {
	t.Helper()
	ws := coreTestWorkloads(t)
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(11, 8, 5)))
	ws["sparse-epochs"] = kadabra.UndirectedWorkload(g)
	for name, w := range ws {
		cfg := deterministicCfg(seed)
		if name == "sparse-epochs" {
			cfg.EpochBase = 16
		}
		ref := &denseRef{c: make([]int64, w.N())}
		res := run(wrapSamplers(w, func(s kadabra.Sampler) kadabra.Sampler { return refSampler{s, ref} }), cfg)
		if res == nil || res.Res == nil || res.Stats.Epochs == 0 {
			t.Fatalf("%s: no rank-0 result, or no epoch ran", name)
		}
		if res.Res.Tau != ref.tau {
			t.Fatalf("%s: tau %d, kernels drew %d", name, res.Res.Tau, ref.tau)
		}
		for v, c := range ref.c {
			if want := float64(c) / float64(ref.tau); res.Res.Betweenness[v] != want {
				t.Fatalf("%s: betweenness[%d] = %v, dense reference %v", name, v, res.Res.Betweenness[v], want)
			}
		}
		perEpoch, denseBytes := res.Stats.WireBytes/int64(res.Stats.Epochs), int64(8*w.N())
		if sparse := name == "sparse-epochs"; sparse != (perEpoch < denseBytes) {
			t.Fatalf("%s: %d B/epoch on the wire against a %d B dense frame", name, perEpoch, denseBytes)
		}
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

func TestDenseSparseEquivalenceLocalMPI(t *testing.T) {
	denseRefBattery(t, 41, func(w kadabra.Workload, cfg Config) *Result {
		res, err := runFresh(context.Background(), w, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
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
	denseRefBattery(t, 43, func(w kadabra.Workload, cfg Config) *Result {
		return runTCPWorld(t, func(comm *mpi.Comm) (*Result, error) {
			return algorithm2Fresh(context.Background(), w, comm, cfg)
		})
	})
}

// TestSparseWireBytesLocalMPI checks the point of the wire format: on a
// graph large enough that an epoch touches a vanishing fraction of the
// vertices, the encoded reduce frames must be a small fraction of the 8·n
// dense frame, per rank-epoch.
func TestSparseWireBytesLocalMPI(t *testing.T) {
	g := gen.RMAT(gen.Graph500(15, 8, 3))
	g, _ = graph.LargestComponent(g)
	n := g.NumNodes()
	cfg := deterministicCfg(51)
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
	cfg := deterministicCfg(53)
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

// wrapSamplers returns a copy of w whose samplers wrap decorates.
func wrapSamplers(w kadabra.Workload, wrap func(kadabra.Sampler) kadabra.Sampler) kadabra.Workload {
	inner := w.NewSampler
	w.NewSampler = func(r *rng.Rand) kadabra.Sampler { return wrap(inner(r)) }
	return w
}

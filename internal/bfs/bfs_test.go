package bfs

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// pathGraph returns the path 0-1-2-...-n-1.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

// refDistances is an independent O(V*E) reference BFS used to validate the
// optimized kernels.
func refDistances(g *graph.Graph, s graph.Node) []uint32 {
	n := g.NumNodes()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[s] = 0
	changed := true
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if dist[v] == Unreached {
				continue
			}
			for _, w := range g.Neighbors(graph.Node(v)) {
				if dist[w] > dist[v]+1 {
					dist[w] = dist[v] + 1
					changed = true
				}
			}
		}
	}
	return dist
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(10)
	b := New(g)
	dist := b.Run(0)
	for i := 0; i < 10; i++ {
		if dist[i] != uint32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	ecc, far := b.Eccentricity(0)
	if ecc != 9 || far != 9 {
		t.Fatalf("ecc = %d far = %d, want 9/9", ecc, far)
	}
}

func TestBFSMatchesReference(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		r := rng.NewRand(seed)
		g := randomGraph(r, n)
		b := New(g)
		s := graph.Node(r.Intn(n))
		got := b.Run(s)
		want := refDistances(g, s)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBFSRunDoesNotAllocate: a workspace's first Run over a graph that
// reaches thousands of vertices allocates nothing; New sized everything.
// Each measured Run gets a fresh workspace.
func TestBFSRunDoesNotAllocate(t *testing.T) {
	const runs = 10
	for _, g := range []*graph.Graph{pathGraph(5000), rmatLCC(12)} {
		fresh := make([]*BFS, runs+1) // AllocsPerRun adds one warm-up call
		for i := range fresh {
			fresh[i] = New(g)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fresh[next].Run(0)
			next++
		})
		if allocs != 0 {
			t.Fatalf("first Run over %d vertices made %v allocations, want 0", g.NumNodes(), allocs)
		}
		if b := fresh[runs]; b.NumReached() != g.NumNodes() {
			t.Fatalf("reached %d of %d vertices", b.NumReached(), g.NumNodes())
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := New(g).Run(0)
	if dist[1] != 1 || dist[2] != Unreached || dist[3] != Unreached {
		t.Fatalf("unexpected distances %v", dist)
	}
}

// views returns a digraph's out- and in-adjacency as CSR views, the two
// inputs the reference routines below take (an undirected graph is its own
// transpose and is passed twice).
func views(g *graph.Digraph) (out, in *graph.Graph) {
	return &graph.Graph{Offsets: g.OutOffsets, Adj: g.OutAdj},
		&graph.Graph{Offsets: g.InOffsets, Adj: g.InAdj}
}

func randomGraph(r *rng.Rand, n int) *graph.Graph {
	edges := make([][2]graph.Node, 3*n)
	for i := range edges {
		edges[i] = [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
	}
	return graph.FromEdges(n, edges)
}

func randomDigraph(seed uint64, n, m int) *graph.Digraph {
	r := rng.NewRand(seed)
	arcs := make([][2]graph.Node, m)
	for i := range arcs {
		arcs[i] = [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
	}
	return graph.FromArcs(n, arcs)
}

// validatePath checks that internal is the internal vertex list of a genuine
// shortest s-t path along the arcs of fwd.
func validatePath(t *testing.T, fwd *graph.Graph, s, tt graph.Node, internal []graph.Node) {
	t.Helper()
	full := append([]graph.Node{s}, internal...)
	full = append(full, tt)
	seen := map[graph.Node]bool{}
	for i, v := range full {
		if seen[v] {
			t.Fatalf("path revisits %d: %v", v, full)
		}
		seen[v] = true
		if i+1 < len(full) && !slices.Contains(fwd.Neighbors(v), full[i+1]) {
			t.Fatalf("path arc (%d,%d) missing; path %v", v, full[i+1], full)
		}
	}
	want := refDistances(fwd, s)[tt]
	if uint32(len(full)-1) != want {
		t.Fatalf("path length %d, shortest distance %d; path %v", len(full)-1, want, full)
	}
}

// pathSampler is what the path checks below need of a kernel: Sampler and
// GoalSampler both draw a uniform shortest s-t path through SamplePath.
type pathSampler interface {
	SamplePath(s, t graph.Node) (internal []graph.Node, ok bool)
}

// checkPathValidity draws random pairs on one graph and checks that the
// sampler reports a path exactly for the reachable ones and that each path
// is a shortest one.
func checkPathValidity(t *testing.T, r *rng.Rand, fwd *graph.Graph, sp pathSampler, pairs int) {
	t.Helper()
	n := fwd.NumNodes()
	for i := 0; i < pairs; i++ {
		s := graph.Node(r.Intn(n))
		tt := graph.Node(r.Intn(n))
		if s == tt {
			continue
		}
		internal, ok := sp.SamplePath(s, tt)
		reachable := refDistances(fwd, s)[tt] != Unreached
		if ok != reachable {
			t.Fatalf("ok=%v but reachable=%v for (%d,%d)", ok, reachable, s, tt)
		}
		if ok {
			validatePath(t, fwd, s, tt, internal)
		}
	}
}

// TestSamplePathValidity runs both undirected kernels on arbitrary sparse
// graphs, where the goal kernel's potential is loose and components are
// many.
func TestSamplePathValidity(t *testing.T) {
	r := rng.NewRand(1)
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 20+r.Intn(60))
		checkPathValidity(t, r, g, NewSampler(g, NewHubs(g), rng.NewRand(uint64(trial))), 30)
		checkPathValidity(t, r, g, NewGoalSampler(g, NewLandmarks(g), rng.NewRand(uint64(trial))), 30)
	}
}

func TestDirectedSamplePathValidity(t *testing.T) {
	r := rng.NewRand(7)
	for trial := 0; trial < 30; trial++ {
		n := 15 + r.Intn(50)
		g := randomDigraph(uint64(trial), n, 4*n)
		out, _ := views(g)
		checkPathValidity(t, r, out, NewDirectedSampler(g, NewDirectedHubs(g), rng.NewRand(uint64(trial)+99)), 25)
	}
}

func TestDirectedSamplerRespectsDirection(t *testing.T) {
	// 0->1->2 with no back arcs: 2 cannot reach 0.
	g := graph.FromArcs(3, [][2]graph.Node{{0, 1}, {1, 2}})
	sp := NewDirectedSampler(g, NewDirectedHubs(g), rng.NewRand(1))
	if internal, ok := sp.SamplePath(0, 2); !ok || len(internal) != 1 || internal[0] != 1 {
		t.Fatalf("forward path wrong: %v ok=%v", internal, ok)
	}
	if _, ok := sp.SamplePath(2, 0); ok {
		t.Fatal("found a path against arc direction")
	}
}

// sigmaRef computes shortest-path counts from s by level-synchronous DP.
func sigmaRef(g *graph.Graph, s graph.Node) ([]uint32, []float64) {
	dist := refDistances(g, s)
	n := g.NumNodes()
	sig := make([]float64, n)
	sig[s] = 1
	// Process vertices in distance order.
	order := make([]graph.Node, 0, n)
	for d := uint32(0); ; d++ {
		found := false
		for v := 0; v < n; v++ {
			if dist[v] == d {
				order = append(order, graph.Node(v))
				found = true
			}
		}
		if !found {
			break
		}
	}
	for _, v := range order {
		for _, w := range g.Neighbors(v) {
			if dist[w] == dist[v]+1 {
				sig[w] += sig[v]
			}
		}
	}
	return dist, sig
}

// checkUniformity verifies that for the fixed pair (s,t), each vertex v
// appears as an internal path vertex with probability
// sigma_st(v)/sigma_st — the property the KADABRA estimator relies on.
// Counts toward t are counts from t on the transpose bwd. An unreachable
// pair is skipped.
func checkUniformity(t *testing.T, fwd, bwd *graph.Graph, sp pathSampler, s, tt graph.Node) {
	t.Helper()
	if s == tt {
		return
	}
	distS, sigS := sigmaRef(fwd, s)
	distT, sigT := sigmaRef(bwd, tt)
	if distS[tt] == Unreached {
		return
	}
	D := distS[tt]
	total := sigS[tt]
	const iters = 4000
	counts := make([]int, fwd.NumNodes())
	for i := 0; i < iters; i++ {
		internal, ok := sp.SamplePath(s, tt)
		if !ok {
			t.Fatal("reachable pair reported unreachable")
		}
		for _, v := range internal {
			counts[v]++
		}
	}
	for v := range counts {
		var want float64
		if graph.Node(v) != s && graph.Node(v) != tt &&
			distS[v] != Unreached && distT[v] != Unreached && distS[v]+distT[v] == D {
			want = sigS[v] * sigT[v] / total
		}
		got := float64(counts[v]) / iters
		// Binomial stddev bound with 5-sigma slack.
		slack := 5*math.Sqrt(want*(1-want)/iters) + 0.01
		if math.Abs(got-want) > slack {
			t.Fatalf("vertex %d frequency %.4f, want %.4f (pair %d->%d)", v, got, want, s, tt)
		}
	}
}

func TestSamplerUniformity(t *testing.T) {
	r := rng.NewRand(3)
	for trial := 0; trial < 5; trial++ {
		n := 12 + r.Intn(10)
		g := randomGraph(r, n)
		s, tt := graph.Node(r.Intn(n)), graph.Node(r.Intn(n))
		checkUniformity(t, g, g, NewSampler(g, NewHubs(g), rng.NewRand(uint64(trial)*7+11)), s, tt)
	}
}

func TestDirectedSamplerUniformity(t *testing.T) {
	r := rng.NewRand(5)
	for trial := 0; trial < 4; trial++ {
		n := 12 + r.Intn(8)
		g := randomDigraph(uint64(trial)+40, n, 4*n)
		out, in := views(g)
		s, tt := graph.Node(r.Intn(n)), graph.Node(r.Intn(n))
		checkUniformity(t, out, in, NewDirectedSampler(g, NewDirectedHubs(g), rng.NewRand(uint64(trial)*3+1)), s, tt)
	}
}

func TestSamplePairDistribution(t *testing.T) {
	g := pathGraph(5)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(9))
	counts := map[[2]graph.Node]int{}
	const iters = 20000
	for i := 0; i < iters; i++ {
		s, tt := sp.SamplePair()
		if s == tt {
			t.Fatal("SamplePair returned s == t")
		}
		counts[[2]graph.Node{s, tt}]++
	}
	want := float64(iters) / 20 // 5*4 ordered pairs
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("pair %v count %d too far from %f", pair, c, want)
		}
	}
}

func TestSamplerAdjacentPair(t *testing.T) {
	g := pathGraph(2)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
	internal, ok := sp.SamplePath(0, 1)
	if !ok || len(internal) != 0 {
		t.Fatalf("adjacent pair: ok=%v internal=%v", ok, internal)
	}
}

func TestSamplerSameVertex(t *testing.T) {
	g := pathGraph(3)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
	if _, ok := sp.SamplePath(1, 1); ok {
		t.Fatal("s==t must not produce a path")
	}
}

func TestSamplerDistance(t *testing.T) {
	g := pathGraph(8)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
	if d := distance(sp, 0, 7); d != 7 {
		t.Fatalf("Distance = %d, want 7", d)
	}
	if d := distance(sp, 3, 3); d != 0 {
		t.Fatalf("Distance(v,v) = %d, want 0", d)
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	split := b.Build()
	if d := distance(NewSampler(split, NewHubs(split), rng.NewRand(1)), 0, 3); d != Unreached {
		t.Fatalf("disconnected Distance = %d, want Unreached", d)
	}
}

func TestSamplerStampReuseManyCalls(t *testing.T) {
	// Many consecutive samples on one sampler must stay valid (stamp logic).
	g := gen.RMAT(gen.Graph500(8, 8, 5))
	g, _ = graph.LargestComponent(g)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(4))
	for i := 0; i < 5000; i++ {
		internal, ok := sp.Sample()
		if ok && len(internal) > 0 {
			// spot check first edge validity
			if len(internal) >= 2 && !g.HasEdge(internal[0], internal[1]) {
				t.Fatal("invalid consecutive internal vertices")
			}
		}
	}
}

// BenchmarkBidirSampleRMAT samples the benchmark workloads' R-MAT graphs:
// scale 12 is small-tcp2's and daemon-session's, scale 16 social-shm's.
func BenchmarkBidirSampleRMAT(b *testing.B) {
	for _, scale := range []int{12, 16} {
		g := rmatLCC(scale)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Sample()
			}
		})
	}
}

func BenchmarkBidirSampleRoad(b *testing.B) {
	g := gen.Road(gen.RoadParams{Rows: 300, Cols: 300, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: 2})
	g, _ = graph.LargestComponent(g)
	sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample()
	}
}

func BenchmarkDirectedSample(b *testing.B) {
	g := randomDigraph(1, 20000, 200000)
	g, _ = graph.LargestSCC(g)
	sp := NewDirectedSampler(g, NewDirectedHubs(g), rng.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample()
	}
}

// distance returns the shortest-path distance between s and t computed
// with the sampler's bidirectional search, or Unreached if disconnected.
func distance(sp *Sampler, s, t graph.Node) uint32 {
	if s == t {
		return 0
	}
	internal, ok := sp.SamplePath(s, t)
	if !ok {
		return Unreached
	}
	return uint32(len(internal)) + 1
}

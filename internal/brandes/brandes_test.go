package brandes

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// arc is one arc u->v of weight w of the naive oracle's input.
type arc struct {
	u, v graph.Node
	w    int64
}

// naive computes normalized betweenness by explicit enumeration, for any
// kind: all-pairs distances by Floyd-Warshall, sigma_st by counting over
// each t's shortest-path predecessors in distance order, then for every
// ordered pair (s,t) and vertex v on a shortest s-t path, sigma_sv *
// sigma_vt / sigma_st. O(V^3 + V^2 * E), and it shares no step with
// Brandes' dependency recursion: only for tiny graphs.
func naive(n int, arcs []arc) []float64 {
	const inf = math.MaxInt64 / 4
	dist := make([][]int64, n)
	for s := range dist {
		dist[s] = make([]int64, n)
		for t := range dist[s] {
			dist[s][t] = inf
		}
		dist[s][s] = 0
	}
	for _, a := range arcs {
		dist[a.u][a.v] = min(dist[a.u][a.v], a.w)
	}
	for k := 0; k < n; k++ {
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				dist[s][t] = min(dist[s][t], dist[s][k]+dist[k][t])
			}
		}
	}
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		byDist := make([]int, n)
		for t := range byDist {
			byDist[t] = t
		}
		slices.SortFunc(byDist, func(a, b int) int { return cmp.Compare(dist[s][a], dist[s][b]) })
		sigma[s] = make([]float64, n)
		sigma[s][s] = 1
		for _, t := range byDist {
			for _, a := range arcs {
				if int(a.v) == t && a.u != a.v && dist[s][a.u] < inf && dist[s][a.u]+a.w == dist[s][t] {
					sigma[s][t] += sigma[s][a.u]
				}
			}
		}
	}
	scores := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] >= inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v != s && v != t && dist[s][v]+dist[v][t] == dist[s][t] {
					scores[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	if n >= 2 {
		inv := 1 / (float64(n) * float64(n-1))
		for i := range scores {
			scores[i] *= inv
		}
	}
	return scores
}

// The oracle's inputs for each kind: every arc of the CSR, unit weights
// where the kind has none.
func arcsOf(g *graph.Graph) []arc {
	var arcs []arc
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.Node(v)) {
			arcs = append(arcs, arc{graph.Node(v), u, 1})
		}
	}
	return arcs
}

func arcsOfDigraph(g *graph.Digraph) []arc {
	var arcs []arc
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Successors(graph.Node(v)) {
			arcs = append(arcs, arc{graph.Node(v), u, 1})
		}
	}
	return arcs
}

func arcsOfWeighted(g *graph.WGraph) []arc {
	var arcs []arc
	for v := 0; v < g.NumNodes(); v++ {
		adj, wts := g.Neighbors(graph.Node(v))
		for i, u := range adj {
			arcs = append(arcs, arc{graph.Node(v), u, int64(wts[i])})
		}
	}
	return arcs
}

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.NewRand(seed)
	edges := make([][2]graph.Node, m)
	for i := range edges {
		edges[i] = [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
	}
	return graph.FromEdges(n, edges)
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestExactOnPath(t *testing.T) {
	// Path 0-1-2-3-4: vertex 2 lies on (0,3),(0,4),(1,3),(1,4),(3,0)... For
	// a path graph, b(v) for internal vertex i = 2*i*(n-1-i)/(n(n-1)).
	n := 5
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	scores := Parallel(b.Build(), 1)
	for i := 0; i < n; i++ {
		want := 2 * float64(i) * float64(n-1-i) / (float64(n) * float64(n-1))
		if math.Abs(scores[i]-want) > 1e-12 {
			t.Fatalf("path b(%d) = %v, want %v", i, scores[i], want)
		}
	}
}

func TestExactOnStar(t *testing.T) {
	// Star with center 0 and k leaves: center lies on all k(k-1) ordered
	// leaf pairs; b(0) = k(k-1)/(n(n-1)), leaves 0.
	k := 7
	n := k + 1
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.Node(i))
	}
	scores := Parallel(b.Build(), 1)
	want := float64(k*(k-1)) / (float64(n) * float64(n-1))
	if math.Abs(scores[0]-want) > 1e-12 {
		t.Fatalf("star center %v, want %v", scores[0], want)
	}
	for i := 1; i < n; i++ {
		if scores[i] != 0 {
			t.Fatalf("star leaf %d has nonzero betweenness %v", i, scores[i])
		}
	}
}

func TestExactOnClique(t *testing.T) {
	n := 6
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
		}
	}
	scores := Parallel(b.Build(), 1)
	for i, s := range scores {
		if s != 0 {
			t.Fatalf("clique vertex %d has betweenness %v, want 0", i, s)
		}
	}
}

func TestExactMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 3
		m := int(mRaw % 60)
		g := randomGraph(seed, n, m)
		return allMatch(naive(n, arcsOf(g)), Parallel(g, 1), func(w int) []float64 { return Parallel(g, w) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// allMatch reports whether exact and the parallel variant at 1, 2 and 8
// workers all lie within 1e-9 of want.
func allMatch(want, exact []float64, parallel func(workers int) []float64) bool {
	if !almostEqual(exact, want, 1e-9) {
		return false
	}
	for _, workers := range []int{1, 2, 8} {
		if !almostEqual(parallel(workers), want, 1e-9) {
			return false
		}
	}
	return true
}

func randomDigraph(seed uint64, n, m int) *graph.Digraph {
	r := rng.NewRand(seed)
	arcs := make([][2]graph.Node, m)
	for i := range arcs {
		arcs[i] = [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))}
	}
	return graph.FromArcs(n, arcs)
}

// randomWeighted draws weights from 1..3, so that distinct shortest paths
// often tie.
func randomWeighted(seed uint64, n, m int) *graph.WGraph {
	r := rng.NewRand(seed)
	edges := make([]graph.WeightedEdge, m)
	for i := range edges {
		edges[i] = graph.WeightedEdge{U: graph.Node(r.Intn(n)), V: graph.Node(r.Intn(n)), W: uint32(1 + r.Intn(3))}
	}
	g, err := graph.FromWeightedEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestDirectedMatchesNaive(t *testing.T) {
	// Sparse digraphs: many are not strongly connected, so unreachable
	// pairs are common.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%14) + 1
		g := randomDigraph(seed, n, int(mRaw)%(4*n))
		return allMatch(naive(n, arcsOfDigraph(g)), ParallelDirected(g, 1), func(w int) []float64 { return ParallelDirected(g, w) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMatchesNaive(t *testing.T) {
	// Sparse graphs, often not connected, whose weights 1..3 make shortest
	// paths tie.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%14) + 1
		g := randomWeighted(seed, n, int(mRaw)%(3*n))
		return allMatch(naive(n, arcsOfWeighted(g)), ParallelWeighted(g, 1), func(w int) []float64 { return ParallelWeighted(g, w) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyGraphsEveryKind(t *testing.T) {
	// n = 0, 1, 2, and the path 0-1-2 beside an isolated vertex 3: vertex
	// 1 lies on the pairs (0,2) and (2,0) of 4*3, or on (0,2) alone in the
	// digraph 0->1->2.
	cases := []struct {
		n     int
		edges [][2]graph.Node
		want  []float64
		wantD []float64
	}{
		{0, nil, []float64{}, []float64{}},
		{1, nil, []float64{0}, []float64{0}},
		{2, [][2]graph.Node{{0, 1}}, []float64{0, 0}, []float64{0, 0}},
		{4, [][2]graph.Node{{0, 1}, {1, 2}}, []float64{0, 2.0 / 12, 0, 0}, []float64{0, 1.0 / 12, 0, 0}},
	}
	for _, c := range cases {
		g := graph.FromEdges(c.n, c.edges)
		dg := graph.FromArcs(c.n, c.edges)
		var wedges []graph.WeightedEdge
		for _, e := range c.edges {
			wedges = append(wedges, graph.WeightedEdge{U: e[0], V: e[1], W: 2})
		}
		wg, err := graph.FromWeightedEdges(c.n, wedges)
		if err != nil {
			t.Fatal(err)
		}
		if !allMatch(c.want, Parallel(g, 1), func(w int) []float64 { return Parallel(g, w) }) ||
			!almostEqual(c.want, naive(c.n, arcsOf(g)), 1e-12) {
			t.Errorf("undirected n=%d: %v, want %v", c.n, Parallel(g, 1), c.want)
		}
		if !allMatch(c.wantD, ParallelDirected(dg, 1), func(w int) []float64 { return ParallelDirected(dg, w) }) ||
			!almostEqual(c.wantD, naive(c.n, arcsOfDigraph(dg)), 1e-12) {
			t.Errorf("directed n=%d: %v, want %v", c.n, ParallelDirected(dg, 1), c.wantD)
		}
		if !allMatch(c.want, ParallelWeighted(wg, 1), func(w int) []float64 { return ParallelWeighted(wg, w) }) ||
			!almostEqual(c.want, naive(c.n, arcsOfWeighted(wg)), 1e-12) {
			t.Errorf("weighted n=%d: %v, want %v", c.n, ParallelWeighted(wg, 1), c.want)
		}
	}
}

func TestUnvalidatedCSR(t *testing.T) {
	// A CSR as an unvalidated mapped file may hold it: one-way lists and a
	// repeated arc, 0->1 twice, 1->2, 2->3. Every scanned arc can be a DAG
	// arc here, more than half of them; the record, sized by the arcs
	// scanned, still holds them, and repeated arcs count as distinct paths.
	g := &graph.Graph{
		Offsets: []uint64{0, 2, 3, 4, 4},
		Adj:     []graph.Node{1, 1, 2, 3},
	}
	if want := naive(4, arcsOf(g)); !allMatch(want, Parallel(g, 1), func(w int) []float64 { return Parallel(g, w) }) {
		t.Fatalf("got %v, want %v", Parallel(g, 1), want)
	}
}

// TestSourcesAllocateNothing is the runtime side of the //bc:hotpath marks
// on the forward searches and the backward pass: once a worker has built
// its search and its DAG record, no source allocates.
func TestSourcesAllocateNothing(t *testing.T) {
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(8, 8, 2)))
	dg := gen.RandomDigraph(300, 2400, 2)
	wg := gen.RandomWeights(g, 10, 2)
	kinds := []struct {
		name    string
		n, arcs int
		f       forward
	}{
		{"undirected", g.NumNodes(), len(g.Adj), newBFS(g.Offsets, g.Adj)},
		{"directed", dg.NumNodes(), dg.NumArcs(), newBFS(dg.OutOffsets, dg.OutAdj)},
		{"weighted", wg.NumNodes(), len(wg.Adj), newDijkstra(wg)},
	}
	for _, k := range kinds {
		d, scores := newDAG(k.n, k.arcs), make([]float64, k.n)
		k.f.search(0, d)
		d.accumulate(scores)
		allocs := testing.AllocsPerRun(3, func() {
			for s := 1; s < k.n; s++ {
				k.f.search(graph.Node(s), d)
				d.accumulate(scores)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per pass over the sources after the first", k.name, allocs)
		}
	}
}

func TestParallelMatchesExact(t *testing.T) {
	g := gen.RMAT(gen.Graph500(9, 8, 3))
	g, _ = graph.LargestComponent(g)
	seq := Parallel(g, 1)
	for _, workers := range []int{2, 4, 8} {
		par := Parallel(g, workers)
		if !almostEqual(seq, par, 1e-9) {
			t.Fatalf("parallel(%d) deviates from sequential", workers)
		}
	}
}

func TestParallelSingleWorkerAndTinyGraph(t *testing.T) {
	g := randomGraph(1, 5, 10)
	if !almostEqual(Parallel(g, 1), Parallel(g, 1), 1e-12) {
		t.Fatal("workers=1 deviates")
	}
	if got := Parallel(graph.NewBuilder(1).Build(), 4); len(got) != 1 || got[0] != 0 {
		t.Fatal("singleton graph mishandled")
	}
}

func TestScoresSumInvariant(t *testing.T) {
	// Sum of unnormalized BC over vertices equals sum over ordered pairs of
	// (internal path vertices weighted) = sum over pairs (d(s,t)-1) when
	// paths are unique; in general sum_v b(v) = E[path length - 1] over
	// uniform pairs... We check the weaker invariant: normalized scores are
	// in [0, 1] and finite.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 3
		g := randomGraph(seed, n, int(mRaw%120))
		for _, s := range Parallel(g, 1) {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.3, 0.9, 0.0}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d items", len(top))
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("TopK order wrong: %v", top)
	}
	if got := TopK(scores, 100); len(got) != 5 {
		t.Fatalf("TopK with k>n returned %d items", len(got))
	}
}

func TestTopKLarge(t *testing.T) {
	r := rng.NewRand(5)
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = r.Float64()
	}
	top := TopK(scores, 200) // exercises the heapsort path
	for i := 1; i < len(top); i++ {
		a, b := scores[top[i-1]], scores[top[i]]
		if a < b {
			t.Fatalf("TopK not descending at %d: %v < %v", i, a, b)
		}
	}
}

func TestTopKMatchesSort(t *testing.T) {
	// Scores from four values, so that most vertices tie with others.
	f := func(seed uint64, nRaw uint8, kRaw int8) bool {
		r := rng.NewRand(seed)
		scores := make([]float64, int(nRaw))
		for i := range scores {
			scores[i] = float64(r.Intn(4)) / 4
		}
		k := int(kRaw) % (len(scores) + 3)
		want := make([]graph.Node, len(scores))
		for i := range want {
			want[i] = graph.Node(i)
		}
		slices.SortStableFunc(want, func(a, b graph.Node) int { return cmp.Compare(scores[b], scores[a]) })
		want = want[:max(min(k, len(want)), 0)]
		return slices.Equal(TopK(scores, k), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactRMAT11(b *testing.B) {
	g := gen.RMAT(gen.Graph500(11, 8, 1))
	g, _ = graph.LargestComponent(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(g, 1)
	}
}

func BenchmarkParallelRMAT11(b *testing.B) {
	g := gen.RMAT(gen.Graph500(11, 8, 1))
	g, _ = graph.LargestComponent(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(g, 0)
	}
}

func BenchmarkExactWeightedRMAT11(b *testing.B) {
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(11, 8, 1)))
	wg := gen.RandomWeights(g, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelWeighted(wg, 1)
	}
}

func BenchmarkExactDirectedRandom(b *testing.B) {
	g := gen.RandomDigraph(2048, 16384, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelDirected(g, 1)
	}
}

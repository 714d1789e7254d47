package bfs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func randomWeighted(seed uint64, n, m int, maxW uint32) *graph.WGraph {
	r := rng.NewRand(seed)
	edges := make([]graph.WeightedEdge, m)
	for i := range edges {
		edges[i] = graph.WeightedEdge{
			U: graph.Node(r.Intn(n)),
			V: graph.Node(r.Intn(n)),
			W: uint32(r.Intn(int(maxW))) + 1,
		}
	}
	g, err := graph.FromWeightedEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// refWeightedDistances is a Bellman-Ford reference.
func refWeightedDistances(g *graph.WGraph, s graph.Node) []uint64 {
	n := g.NumNodes()
	const inf = math.MaxUint64 / 2
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] >= inf {
				continue
			}
			adj, wts := g.Neighbors(graph.Node(v))
			for i, u := range adj {
				if nd := dist[v] + uint64(wts[i]); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestWeightedDistanceMatchesBellmanFord(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		n := 20 + int(seed)
		g := randomWeighted(seed, n, 4*n, 9)
		ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(seed))
		ref := refWeightedDistances(g, 0)
		for v := 1; v < n; v++ {
			got := weightedDistance(ws, 0, graph.Node(v))
			want := ref[v]
			if want >= math.MaxUint64/2 {
				want = math.MaxUint64
			}
			if got != want {
				t.Fatalf("seed %d: dist(0,%d) = %d, want %d", seed, v, got, want)
			}
		}
	}
}

func TestWeightedSamplePathValidity(t *testing.T) {
	r := rng.NewRand(3)
	for trial := 0; trial < 25; trial++ {
		n := 15 + r.Intn(40)
		g := randomWeighted(uint64(trial)+50, n, 4*n, 7)
		ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(uint64(trial)))
		for i := 0; i < 20; i++ {
			s := graph.Node(r.Intn(n))
			tt := graph.Node(r.Intn(n))
			if s == tt {
				continue
			}
			internal, ok := ws.SamplePath(s, tt)
			refDist := refWeightedDistances(g, s)[tt]
			if !ok {
				if refDist < math.MaxUint64/2 {
					t.Fatalf("connected pair (%d,%d) reported disconnected", s, tt)
				}
				continue
			}
			// Path must be a real path with total weight == shortest.
			full := append([]graph.Node{s}, internal...)
			full = append(full, tt)
			var total uint64
			for j := 0; j+1 < len(full); j++ {
				adj, wts := g.Neighbors(full[j])
				found := false
				for k, u := range adj {
					if u == full[j+1] {
						total += uint64(wts[k])
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("path edge (%d,%d) missing", full[j], full[j+1])
				}
			}
			if total != refDist {
				t.Fatalf("path weight %d, shortest %d (pair %d-%d)", total, refDist, s, tt)
			}
		}
	}
}

func TestWeightedSamplerUniformity(t *testing.T) {
	// On a graph with two equal-weight parallel routes, both must be
	// sampled ~50/50: s-a-t (1+1) and s-b-t (1+1).
	edges := []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 3, W: 1}, // via a=1
		{U: 0, V: 2, W: 1}, {U: 2, V: 3, W: 1}, // via b=2
		{U: 0, V: 3, W: 5}, // direct but heavier: never sampled
	}
	g, err := graph.FromWeightedEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(1))
	const iters = 6000
	counts := map[graph.Node]int{}
	for i := 0; i < iters; i++ {
		internal, ok := ws.SamplePath(0, 3)
		if !ok || len(internal) != 1 {
			t.Fatalf("expected single internal vertex, got %v ok=%v", internal, ok)
		}
		counts[internal[0]]++
	}
	for _, v := range []graph.Node{1, 2} {
		frac := float64(counts[v]) / iters
		if math.Abs(frac-0.5) > 0.03 {
			t.Fatalf("route via %d sampled %.3f, want ~0.5", v, frac)
		}
	}
}

func TestWeightedSamplerPrefersLightPath(t *testing.T) {
	// A two-hop route with total weight 2 beats a one-hop edge of weight 3.
	edges := []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 3},
	}
	g, err := graph.FromWeightedEdges(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(2))
	for i := 0; i < 50; i++ {
		internal, ok := ws.SamplePath(0, 2)
		if !ok || len(internal) != 1 || internal[0] != 1 {
			t.Fatalf("expected route via 1, got %v", internal)
		}
	}
}

// refDijkstra is the independent reference the bidirectional sampler is
// held to: a plain unidirectional Dijkstra from s that settles the nearest
// unsettled vertex by a linear scan, returning every vertex's distance
// (wInf if unreachable) and shortest-path count.
func refDijkstra(g *graph.WGraph, s graph.Node) (dist []uint64, sig []float64) {
	n := g.NumNodes()
	dist = make([]uint64, n)
	sig = make([]float64, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = wInf
	}
	dist[s], sig[s] = 0, 1
	for {
		v := -1
		for u, d := range dist {
			if !settled[u] && d != wInf && (v < 0 || d < dist[v]) {
				v = u
			}
		}
		if v < 0 {
			return dist, sig
		}
		settled[v] = true
		adj, wts := g.Neighbors(graph.Node(v))
		for i, u := range adj {
			nd := dist[v] + uint64(wts[i])
			switch {
			case nd < dist[u]:
				dist[u], sig[u] = nd, sig[v]
			case nd == dist[u]:
				sig[u] += sig[v]
			}
		}
	}
}

// checkAllPairs asserts that the sampler's distance and path count agree
// with refDijkstra on every ordered pair of g.
func checkAllPairs(t *testing.T, name string, g *graph.WGraph, ws *WeightedSampler) {
	t.Helper()
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		dist, sig := refDijkstra(g, graph.Node(s))
		for tt := 0; tt < n; tt++ {
			if s == tt {
				continue
			}
			ok := ws.search(graph.Node(s), graph.Node(tt))
			if ok != (dist[tt] != wInf) || ws.mu != dist[tt] {
				t.Fatalf("%s: dist(%d,%d) = %d (ok=%v), want %d", name, s, tt, ws.mu, ok, dist[tt])
			}
			if !ok {
				continue
			}
			if got := ws.crossing(); got != sig[tt] {
				t.Fatalf("%s: sigma(%d,%d) = %v, want %v", name, s, tt, got, sig[tt])
			}
		}
	}
}

func TestWeightedAllPairsParity(t *testing.T) {
	graphs := 0
	for _, maxW := range []uint32{1, 2, 3, 4, 100} {
		for seed := uint64(1); seed <= 8; seed++ {
			n := 12 + int(seed)*4
			// Sparse enough that some inputs fall apart into components.
			g := randomWeighted(seed*31+uint64(maxW), n, n+n/2+int(seed), maxW)
			ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(seed))
			checkAllPairs(t, fmt.Sprintf("maxW %d seed %d", maxW, seed), g, ws)
			graphs++
		}
	}
	if graphs < 40 {
		t.Fatalf("battery ran on %d graphs, want >= 40", graphs)
	}
}

// hubRMAT is a hub-heavy weighted input: the Graph500 R-MAT at scale 8
// (edge factor 16) reduced to its largest component, weights 1..maxW.
func hubRMAT(maxW uint32) *graph.WGraph {
	return gen.RandomWeights(rmatLCC(8), maxW, uint64(maxW))
}

// weightedStar joins a centre to leaves 1..leaves-1 by weights 1..5, plus
// chords between leaves that are each one heavier than the route through
// the centre, so the centre lies on every shortest path and a leaf's chords
// all lie past mu once the centre route is seen.
func weightedStar(leaves int, seed uint64) *graph.WGraph {
	r := rng.NewRand(seed)
	w := make([]uint32, leaves)
	var edges []graph.WeightedEdge
	for v := 1; v < leaves; v++ {
		w[v] = uint32(r.Intn(5)) + 1
		edges = append(edges, graph.WeightedEdge{U: 0, V: graph.Node(v), W: w[v]})
	}
	for i := 0; i < 2*leaves; i++ {
		a, b := r.Intn(leaves-1)+1, r.Intn(leaves-1)+1
		edges = append(edges, graph.WeightedEdge{U: graph.Node(a), V: graph.Node(b), W: w[a] + w[b] + 1})
	}
	g, err := graph.FromWeightedEdges(leaves, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// shuffledLists returns g with every adjacency list, weights alongside, in
// a random order: a graph.WGraph no constructor would build.
func shuffledLists(g *graph.WGraph, seed uint64) *graph.WGraph {
	r := rng.NewRand(seed)
	out := &graph.WGraph{
		Offsets: g.Offsets,
		Adj:     append([]graph.Node(nil), g.Adj...),
		W:       append([]uint32(nil), g.W...),
	}
	for v := range g.NumNodes() {
		lo, hi := int(g.Offsets[v]), int(g.Offsets[v+1])
		for i := hi - 1; i > lo; i-- {
			j := lo + r.Intn(i-lo+1)
			out.Adj[i], out.Adj[j] = out.Adj[j], out.Adj[i]
			out.W[i], out.W[j] = out.W[j], out.W[i]
		}
	}
	return out
}

// TestWeightedCutParity holds the search to refDijkstra on every ordered
// pair of inputs where the cut at mu fires often: hub-heavy R-MATs with
// heavily tied (1..3) and spread (1..10) weights, a star with heavy chords,
// and graphs whose lists are not in ID order — the weight-ordered view must
// come out right from any input.
func TestWeightedCutParity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.WGraph
	}{
		{"hub rmat weights 1..3", hubRMAT(3)},
		{"hub rmat weights 1..10", hubRMAT(10)},
		{"star with heavy chords", weightedStar(60, 4)},
		{"hub rmat, lists shuffled", shuffledLists(hubRMAT(10), 6)},
		// Lists in descending ID order; edges 0-1:2 0-2:1 1-2:1 1-3:3 2-3:4
		// 2-4:2 3-4:1 3-5:1 4-5:2.
		{"literal, lists descending", &graph.WGraph{
			Offsets: []uint64{0, 2, 5, 9, 13, 16, 18},
			Adj:     []graph.Node{2, 1, 3, 2, 0, 4, 3, 1, 0, 5, 4, 2, 1, 5, 3, 2, 4, 3},
			W:       []uint32{1, 2, 3, 1, 2, 2, 4, 1, 1, 1, 1, 4, 3, 2, 1, 2, 2, 1},
		}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ws := NewWeightedSampler(SortArcsByWeight(c.g), rng.NewRand(uint64(i)+1))
			checkAllPairs(t, c.name, c.g, ws)
		})
	}
}

// TestWeightedCutScansFewerArcs: on the hub R-MAT the cut at mu must skip
// most of the arcs of the vertices a search settles.
func TestWeightedCutScansFewerArcs(t *testing.T) {
	g := hubRMAT(10)
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(1))
	const samples = 2000
	var scanned, settledDeg, settles uint64
	for range samples {
		ws.Sample()
		scanned += ws.fwd.work + ws.bwd.work
		for _, sd := range []*wside{&ws.fwd, &ws.bwd} {
			for _, v := range sd.order {
				settledDeg += uint64(g.Degree(v))
				settles++
			}
		}
	}
	t.Logf("per sample: %d settles, %d arcs scanned of %d", settles/samples, scanned/samples, settledDeg/samples)
	if 2*scanned >= settledDeg {
		t.Fatalf("scanned %d arcs of the settled vertices' %d, want under half", scanned, settledDeg)
	}
}

// tieGrid is a rows x cols lattice built to tie heavily: unit axis edges,
// weight-2 diagonals both ways and weight-4 double diagonals, so a diagonal
// step can be taken as one edge, two unit edges, or half of a long edge.
func tieGrid(rows, cols int, extra ...graph.WeightedEdge) *graph.WGraph {
	id := func(i, j int) graph.Node { return graph.Node(i*cols + j) }
	edges := append([]graph.WeightedEdge(nil), extra...)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				edges = append(edges, graph.WeightedEdge{U: id(i, j), V: id(i, j+1), W: 1})
			}
			if i+1 < rows {
				edges = append(edges, graph.WeightedEdge{U: id(i, j), V: id(i+1, j), W: 1})
			}
			if i+1 < rows && j+1 < cols {
				edges = append(edges, graph.WeightedEdge{U: id(i, j), V: id(i+1, j+1), W: 2})
				edges = append(edges, graph.WeightedEdge{U: id(i, j+1), V: id(i+1, j), W: 2})
			}
			if i+2 < rows && j+2 < cols {
				edges = append(edges, graph.WeightedEdge{U: id(i, j), V: id(i+2, j+2), W: 4})
			}
		}
	}
	g, err := graph.FromWeightedEdges(rows*cols, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// enumerateShortestPaths lists every minimum-weight s-t path (as its
// internal vertices) by DFS over the exact shortest-path DAG of the
// Bellman-Ford reference.
func enumerateShortestPaths(g *graph.WGraph, s, t graph.Node) []string {
	ds, dt := refWeightedDistances(g, s), refWeightedDistances(g, t)
	var paths []string
	var stack []graph.Node
	var dfs func(v graph.Node)
	dfs = func(v graph.Node) {
		if v == t {
			paths = append(paths, fmt.Sprint(stack))
			return
		}
		adj, wts := g.Neighbors(v)
		for i, u := range adj {
			if ds[v]+uint64(wts[i])+dt[u] != ds[t] {
				continue
			}
			if u != t {
				stack = append(stack, u)
			}
			dfs(u)
			if u != t {
				stack = stack[:len(stack)-1]
			}
		}
	}
	dfs(s)
	return paths
}

// checkUniformPaths draws paths between s and t and compares their
// frequencies with the enumerated shortest paths by a chi-square test; it
// returns the number of tied paths.
func checkUniformPaths(t *testing.T, g *graph.WGraph, s, tt graph.Node, seed uint64) int {
	t.Helper()
	paths := enumerateShortestPaths(g, s, tt)
	counts := make(map[string]int, len(paths))
	for _, p := range paths {
		counts[p] = 0
	}
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(seed))
	draws := 40 * len(paths)
	if draws < 500 {
		draws = 500
	}
	for i := 0; i < draws; i++ {
		internal, ok := ws.SamplePath(s, tt)
		if !ok {
			t.Fatalf("pair (%d,%d) reported disconnected", s, tt)
		}
		key := fmt.Sprint(internal)
		if _, known := counts[key]; !known {
			t.Fatalf("pair (%d,%d): sampled %s, not one of the %d shortest paths", s, tt, key, len(paths))
		}
		counts[key]++
	}
	if len(paths) == 1 {
		return 1
	}
	expect := float64(draws) / float64(len(paths))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	df := float64(len(paths) - 1)
	if z := (chi2 - df) / math.Sqrt(2*df); math.Abs(z) > 4 {
		t.Errorf("pair (%d,%d): %d paths, %d draws: chi-square %.1f on %.0f degrees of freedom (z = %.2f)",
			s, tt, len(paths), draws, chi2, df, z)
	}
	return len(paths)
}

func TestWeightedPathUniformityChiSquare(t *testing.T) {
	const rows, cols = 5, 5
	corner, far := graph.Node(0), graph.Node(rows*cols-1)
	// The corner-to-corner distance is 8; the direct edge is heavier.
	g := tieGrid(rows, cols, graph.WeightedEdge{U: corner, V: far, W: 11})
	cases := []struct {
		name     string
		s, t     graph.Node
		minPaths int
	}{
		{"corners joined by a heavy edge that is not shortest", corner, far, 100},
		{"reverse direction", far, corner, 100},
		{"off-diagonal pair", 1, 23, 20},
		{"adjacent by a long edge that ties", 0, 12, 2},
		{"adjacent by a diagonal that ties", 6, 12, 2},
		{"only shortest path is one edge", 7, 8, 1},
		{"only shortest path is one edge, at the border", 0, 5, 1},
		{"one row apart", 10, 14, 1},
	}
	for i, c := range cases {
		got := checkUniformPaths(t, g, c.s, c.t, uint64(i)+1)
		if got < c.minPaths {
			t.Errorf("%s: %d shortest paths, the case wants >= %d", c.name, got, c.minPaths)
		}
		if c.minPaths == 1 && got != 1 {
			t.Errorf("%s: %d shortest paths, want exactly 1", c.name, got)
		}
	}
}

func TestWeightedDisconnectedPairThenNextSample(t *testing.T) {
	// Two components: a weighted triangle 0-1-2 and a path 3-4-5-6.
	g, err := graph.FromWeightedEdges(7, []graph.WeightedEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 4},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 7}, {U: 5, V: 6, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(5))
	for round := 0; round < 3; round++ {
		for _, pair := range [][2]graph.Node{{0, 3}, {6, 2}, {4, 1}} {
			if internal, ok := ws.SamplePath(pair[0], pair[1]); ok {
				t.Fatalf("pair %v across components sampled %v", pair, internal)
			}
			if d := weightedDistance(ws, pair[0], pair[1]); d != math.MaxUint64 {
				t.Fatalf("pair %v across components at distance %d", pair, d)
			}
		}
		if internal, ok := ws.SamplePath(3, 6); !ok || fmt.Sprint(internal) != "[4 5]" {
			t.Fatalf("after a disconnected pair: path 3-6 = %v ok=%v, want [4 5]", internal, ok)
		}
		checkAllPairs(t, "after disconnected pairs", g, ws)
	}
}

func TestWeightedStampWrapClearsBothSides(t *testing.T) {
	const n = 60
	g := randomWeighted(77, n, 240, 5)
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(9))
	// Every vertex carries, on both sides, a settled distance-0 label from a
	// round the counter will reach again after wrapping.
	for v := 0; v < n; v++ {
		stale := wlabel{dist: 0, sig: 5, stamp: uint32(v%7) + 1}
		ws.fwd.lab[v], ws.bwd.lab[v] = stale, stale
	}
	ws.cur = math.MaxUint32
	ws.search(0, 1)
	if ws.cur != 1 {
		t.Fatalf("round counter %d after the wrap, want 1", ws.cur)
	}
	for v := 0; v < n; v++ {
		if f, b := ws.fwd.lab[v].stamp, ws.bwd.lab[v].stamp; f > 1 || b > 1 {
			t.Fatalf("vertex %d keeps stale stamps (forward %d, backward %d) across the wrap", v, f, b)
		}
	}
	checkAllPairs(t, "after the wrap", g, ws)
}

// TestWeightedUnitWeightsMatchBFS: with every weight 1 the search
// degenerates to a bidirectional BFS, so distance and path count must match
// the unweighted sampler on the skeleton.
func TestWeightedUnitWeightsMatchBFS(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		n := 30 + int(seed)*5
		wg := randomWeighted(seed+200, n, 3*n, 1)
		ws := NewWeightedSampler(SortArcsByWeight(wg), rng.NewRand(seed))
		ug := wg.Unweighted()
		sp := NewSampler(ug, NewHubs(ug), rng.NewRand(seed))
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				if s == tt {
					continue
				}
				_, ok := sp.SamplePath(graph.Node(s), graph.Node(tt))
				if got := ws.search(graph.Node(s), graph.Node(tt)); got != ok {
					t.Fatalf("seed %d pair (%d,%d): weighted ok=%v, bfs ok=%v", seed, s, tt, got, ok)
				}
				if !ok {
					continue
				}
				x := sp.meet[0]
				want := 0.0
				for _, m := range sp.meet {
					want += sp.vs[m][0].sig * sp.vs[m][1].sig
				}
				if d := uint64(sp.vs[x][0].dist + sp.vs[x][1].dist); ws.mu != d {
					t.Fatalf("seed %d pair (%d,%d): distance %d, bfs %d", seed, s, tt, ws.mu, d)
				}
				if got := ws.crossing(); got != want {
					t.Fatalf("seed %d pair (%d,%d): %v paths, bfs %v", seed, s, tt, got, want)
				}
			}
		}
	}
}

// TestWeightedHugeWeights: distances beyond 2^32 on a 4-cycle of
// MaxUint32 edges (plus a lighter chord) neither overflow the mu candidates
// nor index a bucket out of range, and the two tied routes 0-1-2 / 0-3-2
// are both drawn.
func TestWeightedHugeWeights(t *testing.T) {
	const big = math.MaxUint32
	g, err := graph.FromWeightedEdges(5, []graph.WeightedEdge{
		{U: 0, V: 1, W: big}, {U: 1, V: 2, W: big}, {U: 2, V: 3, W: big}, {U: 3, V: 0, W: big},
		{U: 1, V: 4, W: big - 1}, {U: 4, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWeightedSampler(SortArcsByWeight(g), rng.NewRand(1))
	checkAllPairs(t, "MaxUint32 cycle", g, ws)
	if d := weightedDistance(ws, 0, 2); d != 2*uint64(big) {
		t.Fatalf("distance over two MaxUint32 edges = %d, want %d", d, 2*uint64(big))
	}
	seen := map[graph.Node]int{}
	for i := 0; i < 200; i++ {
		internal, ok := ws.SamplePath(0, 2)
		if !ok || len(internal) != 1 {
			t.Fatalf("0-2 = %v ok=%v, want one internal vertex", internal, ok)
		}
		seen[internal[0]]++
	}
	if seen[1] < 60 || seen[3] < 60 || seen[1]+seen[3] != 200 {
		t.Fatalf("tied routes drawn %v, want vertices 1 and 3 about evenly", seen)
	}
}

// TestWeightedSampleDigest pins the weighted sample stream: the
// sampleDigest of 10^5 samples from NewWeightedSampler(..., rng.NewRand(5))
// on weighted-seq's shape (the R-MAT 2^11 LCC, weights 1..10), the hub-heavy
// R-MAT with tied weights, the star with heavy chords and a uniform random
// graph. The values are those of the kernel that read the far side's label
// for every scanned arc.
func TestWeightedSampleDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.WGraph
		want uint64
	}{
		{"rmat11", gen.RandomWeights(rmatLCC(11), 10, 1), 0x4123b0e064916eae},
		{"hub rmat weights 1..3", hubRMAT(3), 0x666326304d7dc65f},
		{"star with heavy chords", weightedStar(60, 4), 0x75b1b12e9bf49875},
		{"uniform", randomWeighted(1, 2000, 12000, 100), 0x2fceace717d1a307},
	} {
		t.Run(c.name, func(t *testing.T) {
			ws := NewWeightedSampler(SortArcsByWeight(c.g), rng.NewRand(5))
			if got := sampleDigest(ws, 100_000); got != c.want {
				t.Fatalf("digest %016x, want %016x", got, c.want)
			}
		})
	}
}

// BenchmarkWeightedSample times one sample on a uniform random graph (low
// degree, weights 1..100) and on the weighted-seq benchmark workload's shape:
// the R-MAT 2^11 LCC with weights 1..10, whose hubs hold most of the arcs.
func BenchmarkWeightedSample(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.WGraph
	}{
		{"uniform", randomWeighted(1, 20000, 120000, 100)},
		{"rmat11", gen.RandomWeights(rmatLCC(11), 10, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := NewWeightedSampler(SortArcsByWeight(c.g), rng.NewRand(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Sample()
			}
		})
	}
}

// weightedDistance returns the minimum path weight between s and t, or
// MaxUint64 if disconnected.
func weightedDistance(ws *WeightedSampler, s, t graph.Node) uint64 {
	if s == t {
		return 0
	}
	ws.search(s, t)
	return ws.mu
}

package diameter

import (
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// bruteDiameter computes the exact diameter with |V| BFS runs.
func bruteDiameter(g *graph.Graph) uint32 {
	b := bfs.New(g)
	var diam uint32
	for v := 0; v < g.NumNodes(); v++ {
		dist := b.Run(graph.Node(v))
		for _, d := range dist {
			if d != bfs.Unreached && d > diam {
				diam = d
			}
		}
	}
	return diam
}

func connectedRandom(seed uint64, n, m int) *graph.Graph {
	r := rng.NewRand(seed)
	edges := make([][2]graph.Node, 0, m+n)
	// Random spanning tree to guarantee connectivity.
	for v := 1; v < n; v++ {
		edges = append(edges, [2]graph.Node{graph.Node(v), graph.Node(r.Intn(v))})
	}
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))})
	}
	return graph.FromEdges(n, edges)
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

func TestExactOnPath(t *testing.T) {
	for _, n := range []int{2, 3, 10, 101} {
		if got := IFUB(pathGraph(n)); got != uint32(n-1) {
			t.Fatalf("path %d: diameter %d, want %d", n, got, n-1)
		}
	}
}

func TestExactOnCycle(t *testing.T) {
	for _, n := range []int{3, 4, 9, 10, 51} {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(graph.Node(i), graph.Node((i+1)%n))
		}
		if got := IFUB(b.Build()); got != uint32(n/2) {
			t.Fatalf("cycle %d: diameter %d, want %d", n, got, n/2)
		}
	}
}

func TestExactOnStarAndClique(t *testing.T) {
	// Star: diameter 2.
	b := graph.NewBuilder(8)
	for i := graph.Node(1); i < 8; i++ {
		b.AddEdge(0, i)
	}
	if got := IFUB(b.Build()); got != 2 {
		t.Fatalf("star diameter %d, want 2", got)
	}
	// Clique: diameter 1.
	b = graph.NewBuilder(6)
	for i := graph.Node(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	if got := IFUB(b.Build()); got != 1 {
		t.Fatalf("clique diameter %d, want 1", got)
	}
}

func TestIFUBMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%80) + 2
		m := int(mRaw % 160)
		g := connectedRandom(seed, n, m)
		return IFUB(g) == bruteDiameter(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleSweepIsLowerBound(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%80) + 2
		m := int(mRaw % 160)
		g := connectedRandom(seed, n, m)
		ecc, u, v := DoubleSweep(g, 0)
		return ecc <= bruteDiameter(g) && bfs.New(g).Run(u)[v] == ecc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// lcc reduces g to its largest connected component, IFUB's documented input.
func lcc(g *graph.Graph) *graph.Graph {
	g, _ = graph.LargestComponent(g)
	return g
}

func TestExactMatchesBruteForceAcrossFamilies(t *testing.T) {
	// 80 seeds x 4 families: eccentricity-bound pruning may only skip
	// vertices that cannot raise the lower bound, so the result is the brute
	// force diameter on every one.
	families := []struct {
		name string
		make func(seed uint64) *graph.Graph
	}{
		{"erdos-renyi", func(s uint64) *graph.Graph {
			n := 20 + int(s*37%280)
			return gen.ErdosRenyi(n, n+int(s*13%uint64(2*n)), s)
		}},
		{"road", func(s uint64) *graph.Graph {
			return gen.Road(gen.RoadParams{Rows: 5 + int(s%20), Cols: 5 + int(s*7%20), DeleteProb: 0.15, Seed: s})
		}},
		{"barabasi-albert", func(s uint64) *graph.Graph {
			return gen.BarabasiAlbert(20+int(s*29%380), 1+int(s%3), s)
		}},
		{"rmat", func(s uint64) *graph.Graph {
			return gen.RMAT(gen.Graph500(6+int(s%5), 2+int(s%7), s))
		}},
	}
	for _, f := range families {
		for seed := uint64(1); seed <= 80; seed++ {
			g := lcc(f.make(seed))
			if got, want := IFUB(g), bruteDiameter(g); got != want {
				t.Errorf("%s seed %d (n=%d): diameter %d, want %d", f.name, seed, g.NumNodes(), got, want)
			}
		}
	}
}

func TestIFUBSweepCounts(t *testing.T) {
	// Enumerating whole fringe levels needs 4005 fringe sweeps on this
	// lattice, eccentricity-bound pruning 17. The R-MAT pin guards the
	// low-diameter side, where the double sweep alone is (and must stay)
	// nearly enough.
	road := lcc(gen.Road(gen.RoadParams{Rows: 120, Cols: 120, DeleteProb: 0.1, Seed: 1}))
	if d, sweeps := ifub(road); sweeps > 64 {
		t.Errorf("road 120x120: IFUB = %d took %d fringe sweeps, want <= 64", d, sweeps)
	}
	rmat := lcc(gen.RMAT(gen.Graph500(14, 16, 1)))
	if d, sweeps := ifub(rmat); sweeps > 16 {
		t.Errorf("R-MAT 2^14: IFUB = %d took %d fringe sweeps, want <= 16", d, sweeps)
	}
}

func TestIFUBDisconnectedInput(t *testing.T) {
	// Two components: a 7-path (0..6) holding the max-degree root, and a
	// 30-path that no chosen root reaches. The documented behaviour is the
	// maximum over pairs reachable from the chosen roots, i.e. the 7-path's
	// diameter — and the unreached vertices must not disturb it.
	b := graph.NewBuilder(37)
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	for i := 7; i < 36; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	g := b.Build()
	if root := g.MaxDegreeNode(); root > 6 {
		t.Fatalf("max-degree root %d is outside the first component", root)
	}
	if d := IFUB(g); d != 6 {
		t.Fatalf("IFUB = %d, want 6", d)
	}
	if got, _, _ := DoubleSweep(g, 0); got != 6 {
		t.Fatalf("DoubleSweep = %d, want 6", got)
	}
}

func TestVertexDiameter(t *testing.T) {
	if got := VertexDiameter(pathGraph(10)); got != 10 {
		t.Fatalf("path vertex diameter %d, want 10", got)
	}
	if got := VertexDiameter(graph.NewBuilder(1).Build()); got != 1 {
		t.Fatalf("singleton vertex diameter %d, want 1", got)
	}
	if got := VertexDiameter(graph.NewBuilder(0).Build()); got != 0 {
		t.Fatalf("empty vertex diameter %d, want 0", got)
	}
}

func TestExactOnRoadProxy(t *testing.T) {
	// Road networks are IFUB's hard case (high diameter); make sure we agree
	// with brute force on a small one.
	g := lcc(gen.Road(gen.RoadParams{Rows: 20, Cols: 25, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: 7}))
	if got, want := IFUB(g), bruteDiameter(g); got != want {
		t.Fatalf("road diameter %d, want %d", got, want)
	}
}

func TestExactOnRMAT(t *testing.T) {
	g := lcc(gen.RMAT(gen.Graph500(9, 8, 2)))
	if got, want := IFUB(g), bruteDiameter(g); got != want {
		t.Fatalf("rmat diameter %d, want %d", got, want)
	}
}

func BenchmarkIFUBRoad(b *testing.B) {
	// At 240x240 a regression to whole-level fringe enumeration costs ~16k
	// sweeps (19 s per Exact), which the CI smoke step's budget notices.
	g := lcc(gen.Road(gen.RoadParams{Rows: 240, Cols: 240, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IFUB(g)
	}
}

func BenchmarkIFUBRMAT(b *testing.B) {
	g := lcc(gen.RMAT(gen.Graph500(13, 16, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IFUB(g)
	}
}

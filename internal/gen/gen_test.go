package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g := RMAT(Graph500(10, 8, 1))
	if g.NumNodes() != 1024 {
		t.Fatalf("NumNodes = %d, want 1024", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dedup removes some edges but most should survive at this density.
	if g.NumEdges() < 1024 || g.NumEdges() > 8*1024 {
		t.Fatalf("NumEdges = %d, outside plausible range", g.NumEdges())
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := RMAT(Graph500(8, 8, 42))
	b := RMAT(Graph500(8, 8, 42))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed produced different adjacency")
		}
	}
	c := RMAT(Graph500(8, 8, 43))
	if c.NumEdges() == a.NumEdges() {
		// Different seeds could coincidentally match edge count; compare adjacency.
		same := true
		for i := range a.Adj {
			if i >= len(c.Adj) || a.Adj[i] != c.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT with Graph500 parameters must produce a heavily skewed degree
	// distribution: max degree far above average.
	g := RMAT(Graph500(12, 16, 7))
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(maxDeg) < 5*avg {
		t.Fatalf("max degree %d not skewed vs average %.1f", maxDeg, avg)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 2000, 3)
	if g.NumNodes() != 500 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Collisions are rare at this density: expect >90% of edges to survive.
	if g.NumEdges() < 1800 {
		t.Fatalf("NumEdges = %d, too many collisions", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 5)
	if g.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("BA graph must be connected by construction")
	}
	// Preferential attachment yields a hub: max degree well above k.
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Fatalf("max degree %d too small for preferential attachment", maxDeg)
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= k")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}

func TestRoad(t *testing.T) {
	g := Road(RoadParams{Rows: 50, Cols: 40, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: 9})
	if g.NumNodes() != 2000 {
		t.Fatalf("NumNodes = %d, want 2000", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if avg < 2 || avg > 4.5 {
		t.Fatalf("road avg degree %.2f outside road-like range", avg)
	}
}

func TestRoadPureLattice(t *testing.T) {
	// No deletions or diagonals: exact lattice edge count r*(c-1)+c*(r-1).
	g := Road(RoadParams{Rows: 10, Cols: 15, Seed: 1})
	want := 10*14 + 15*9
	if g.NumEdges() != want {
		t.Fatalf("lattice edges = %d, want %d", g.NumEdges(), want)
	}
	if !graph.IsConnected(g) {
		t.Fatal("pure lattice must be connected")
	}
}

func TestHyperbolicBasics(t *testing.T) {
	g := Hyperbolic(HyperbolicParams{N: 3000, AvgDegree: 12, Gamma: 3, Seed: 11})
	if g.NumNodes() != 3000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	// The closed-form radius calibration is approximate; accept 2x slack.
	if avg < 4 || avg > 36 {
		t.Fatalf("hyperbolic avg degree %.2f too far from target 12", avg)
	}
}

func TestHyperbolicPowerLawTail(t *testing.T) {
	g := Hyperbolic(HyperbolicParams{N: 5000, AvgDegree: 10, Gamma: 3, Seed: 13})
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(maxDeg) < 4*avg {
		t.Fatalf("hyperbolic max degree %d lacks a heavy tail (avg %.1f)", maxDeg, avg)
	}
}

func TestHyperbolicMatchesBruteForce(t *testing.T) {
	// The band-pruned generator must produce exactly the threshold graph; we
	// can't re-derive the points here, so instead check an invariant the
	// pruning could violate: determinism and validity across seeds/sizes.
	for _, n := range []int{50, 200, 500} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := Hyperbolic(HyperbolicParams{N: n, AvgDegree: 8, Gamma: 2.5, Seed: seed})
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			g2 := Hyperbolic(HyperbolicParams{N: n, AvgDegree: 8, Gamma: 2.5, Seed: seed})
			if g.NumEdges() != g2.NumEdges() {
				t.Fatalf("hyperbolic not deterministic at n=%d seed=%d", n, seed)
			}
		}
	}
}

func TestHyperbolicDegreeScaling(t *testing.T) {
	// Doubling N at fixed AvgDegree should keep the average degree roughly
	// stable (the calibration absorbs N).
	d := func(n int) float64 {
		g := Hyperbolic(HyperbolicParams{N: n, AvgDegree: 10, Gamma: 3, Seed: 17})
		return 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	}
	d1, d2 := d(2000), d(4000)
	if ratio := d2 / d1; math.Abs(math.Log(ratio)) > math.Log(2.0) {
		t.Fatalf("avg degree drifts with N: %.2f vs %.2f", d1, d2)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { RMAT(RMATParams{Scale: -1}) },
		func() { Road(RoadParams{Rows: 0, Cols: 5}) },
		func() { Hyperbolic(HyperbolicParams{N: 1, Gamma: 3}) },
		func() { Hyperbolic(HyperbolicParams{N: 10, Gamma: 2}) },
		func() { BarabasiAlbert(10, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkRMATScale14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RMAT(Graph500(14, 16, uint64(i)))
	}
}

// BenchmarkRMAT16 generates social-shm's input, R-MAT Graph500(16, 16, 1):
// the gen.generate_s layer of the benchmark. ns/edge is per raw edge
// drawn; run it with -cpu 1,2 to see the generation's parallel speedup.
func BenchmarkRMAT16(b *testing.B) {
	p := Graph500(16, 16, 1)
	ops := 0
	for b.Loop() {
		RMAT(p)
		ops++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*p.numEdges()), "ns/edge")
}

// BenchmarkLargestComponent reduces social-shm's input, R-MAT Graph500(16,
// 16, 1), to its largest component: the graph.lcc_s layer of the benchmark.
func BenchmarkLargestComponent(b *testing.B) {
	g := RMAT(Graph500(16, 16, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.LargestComponent(g)
	}
}

func BenchmarkHyperbolic50k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Hyperbolic(HyperbolicParams{N: 50000, AvgDegree: 10, Gamma: 3, Seed: uint64(i)})
	}
}

func BenchmarkRoad100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Road(RoadParams{Rows: 316, Cols: 316, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: uint64(i)})
	}
}

package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomEdges produces a random multigraph edge set (may contain duplicates
// and self loops, which the builder must clean up).
func randomEdges(r *rng.Rand, n, m int) [][2]Node {
	edges := make([][2]Node, m)
	for i := range edges {
		edges[i] = [2]Node{Node(r.Intn(n)), Node(r.Intn(n))}
	}
	return edges
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse direction
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self loop: dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(0, 3) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph has nonzero size")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g = NewBuilder(5).Build() // isolated vertices
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatal("isolated-vertex graph wrong size")
	}
}

func TestValidateRandomGraphs(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 1000)
		g := FromEdges(n, randomEdges(rng.NewRand(seed), n, m))
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEdgesCoversEachEdgeOnce(t *testing.T) {
	r := rng.NewRand(3)
	g := FromEdges(50, randomEdges(r, 50, 200))
	seen := make(map[[2]Node]int)
	g.ForEdges(func(u, v Node) {
		if u >= v {
			t.Fatalf("ForEdges order violated: %d >= %d", u, v)
		}
		seen[[2]Node{u, v}]++
	})
	if len(seen) != g.NumEdges() {
		t.Fatalf("ForEdges visited %d distinct edges, want %d", len(seen), g.NumEdges())
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v visited %d times", e, c)
		}
	}
}

func TestMaxDegreeNode(t *testing.T) {
	// Star graph: center 0 has max degree.
	b := NewBuilder(6)
	for i := Node(1); i < 6; i++ {
		b.AddEdge(0, i)
	}
	b.AddEdge(1, 2)
	g := b.Build()
	if got := g.MaxDegreeNode(); got != 0 {
		t.Fatalf("MaxDegreeNode = %d, want 0", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles plus an isolated vertex.
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g := b.Build()
	labels, sizes := ConnectedComponents(g)
	if len(sizes) != 3 {
		t.Fatalf("got %d components, want 3", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first triangle split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("second triangle split across components")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] {
		t.Fatal("distinct components merged")
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestLargestComponent(t *testing.T) {
	// Component A: path of 5; component B: triangle.
	b := NewBuilder(8)
	for i := Node(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(7, 5)
	g := b.Build()
	lc, remap := LargestComponent(g)
	if lc.NumNodes() != 5 || lc.NumEdges() != 4 {
		t.Fatalf("largest component has %d nodes %d edges, want 5/4", lc.NumNodes(), lc.NumEdges())
	}
	if err := lc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := remap[5]; ok {
		t.Fatal("remap contains vertex from smaller component")
	}
	if !IsConnected(lc) {
		t.Fatal("largest component not connected")
	}
}

func TestLargestComponentOfConnectedGraphIsIdentity(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	lc, remap := LargestComponent(g)
	if lc != g {
		t.Fatal("connected graph was not returned as-is")
	}
	// The connected fast path signals identity with a nil map rather than
	// materializing n entries — load-bearing for mapped billion-edge
	// graphs, where the identity map would dwarf the heap the mmap saved.
	if remap != nil {
		t.Fatalf("connected graph built a %d-entry identity map, want nil", len(remap))
	}
}

func TestComponentSizesSumToN(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%300) + 1
		m := int(mRaw % 400)
		g := FromEdges(n, randomEdges(rng.NewRand(seed), n, m))
		_, sizes := ConnectedComponents(g)
		total := 0
		for _, s := range sizes {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.NewRand(11)
	g := FromEdges(60, randomEdges(r, 60, 300))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reader renumbers densely, so isolated vertices are dropped; every
	// non-isolated structure must survive. Compare edge multisets via degree
	// sequences and edge counts.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% konect style\n0 1\n1 2\n\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

// v1Image returns g in the BCSR v1 layout, which ReadBinary still accepts
// although no writer for it is left in the program.
func v1Image(g *Graph) []byte {
	var buf bytes.Buffer
	for _, section := range []any{
		[]uint64{BCSRMagic(1), uint64(g.NumNodes()), uint64(len(g.Adj))}, g.Offsets, g.Adj,
	} {
		if err := binary.Write(&buf, binary.LittleEndian, section); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 800)
		g := FromEdges(n, randomEdges(rng.NewRand(seed), n, m))
		g2, err := ReadBinary(bytes.NewReader(v1Image(g)))
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || len(g2.Adj) != len(g.Adj) {
			return false
		}
		for i := range g.Offsets {
			if g.Offsets[i] != g2.Offsets[i] {
				return false
			}
		}
		for i := range g.Adj {
			if g.Adj[i] != g2.Adj[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a bcsr file at all......"))); err == nil {
		t.Fatal("garbage accepted as BCSR")
	}
}

func TestSubgraph(t *testing.T) {
	// 0-1-2-3 path plus 0-3 chord; keep {0,1,3}.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	g := b.Build()
	sg, remap := Subgraph(g, []Node{0, 1, 3})
	if sg.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sg.NumNodes())
	}
	// Surviving edges: {0,1} and {0,3}.
	if sg.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sg.NumEdges())
	}
	if !sg.HasEdge(remap[0], remap[1]) || !sg.HasEdge(remap[0], remap[3]) {
		t.Fatal("expected subgraph edges missing")
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.NewRand(1)
	edges := randomEdges(r, 10000, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(10000, edges)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	r := rng.NewRand(1)
	g := FromEdges(10000, randomEdges(r, 10000, 100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(Node(i%10000), Node((i*7)%10000))
	}
}

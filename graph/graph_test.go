package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLargestComponentSurfacesDegenerateInputs(t *testing.T) {
	if _, _, err := LargestComponent(nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, _, err := LargestComponent(NewBuilder(0).Build()); err == nil {
		t.Error("empty graph accepted")
	}
	// Isolated vertices only: the largest component is a single vertex,
	// useless for betweenness.
	if _, _, err := LargestComponent(NewBuilder(3).Build()); err == nil {
		t.Error("edgeless graph accepted")
	}
}

func TestLargestComponentKeepsLargest(t *testing.T) {
	// Two components: a triangle and an edge.
	g := FromEdges(5, [][2]Node{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	lcc, remap, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if lcc.NumNodes() != 3 || lcc.NumEdges() != 3 {
		t.Fatalf("largest component has %d nodes, %d edges; want 3, 3", lcc.NumNodes(), lcc.NumEdges())
	}
	if len(remap) != 3 {
		t.Fatalf("remap has %d entries, want 3", len(remap))
	}
}

func TestGeneratorsAndRoundTrip(t *testing.T) {
	g := RMAT(Graph500(8, 8, 1))
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("RMAT generated an empty graph")
	}
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	if format, err := DetectFormatFile(path); err != nil || format != FormatBCSR2 {
		t.Fatalf("SaveFile(%q) wrote format %v (%v), want BCSR v2", path, format, err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed the graph: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), back.NumNodes(), back.NumEdges())
	}
}

func TestStronglyConnectedComponents(t *testing.T) {
	// Two 3-cycles joined by one-way arcs, plus a sink vertex: three SCCs
	// of sizes 3, 3, 1.
	g := FromArcs(7, [][2]Node{
		{0, 1}, {1, 2}, {2, 0}, // SCC A
		{3, 4}, {4, 5}, {5, 3}, // SCC B
		{0, 3}, {4, 6}, // one-way bridges and a sink
	})
	labels, sizes := StronglyConnectedComponents(g)
	if len(sizes) != 3 {
		t.Fatalf("got %d SCCs, want 3", len(sizes))
	}
	counts := map[int]int{}
	for _, s := range sizes {
		counts[s]++
	}
	if counts[3] != 2 || counts[1] != 1 {
		t.Fatalf("SCC sizes = %v, want two of size 3 and one of size 1", sizes)
	}
	// Members of the same cycle must share a label; the bridged cycles
	// must not.
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("cycle {0,1,2} split across SCCs")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("cycle {3,4,5} split across SCCs")
	}
	if labels[0] == labels[3] {
		t.Error("one-way bridge merged two SCCs")
	}
	if labels[6] == labels[3] || labels[6] == labels[0] {
		t.Error("sink vertex absorbed into a cycle's SCC")
	}
}

func TestLargestSCC(t *testing.T) {
	// A 4-cycle and a 2-cycle connected one-way: LargestSCC must keep the
	// 4-cycle and remap it densely.
	g := FromArcs(6, [][2]Node{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 4},
		{0, 4},
	})
	scc, remap, err := LargestSCC(g)
	if err != nil {
		t.Fatal(err)
	}
	if scc.NumNodes() != 4 {
		t.Fatalf("largest SCC has %d nodes, want 4", scc.NumNodes())
	}
	if scc.NumArcs() != 4 {
		t.Fatalf("largest SCC has %d arcs, want 4", scc.NumArcs())
	}
	if len(remap) != 4 {
		t.Fatalf("remap has %d entries, want 4", len(remap))
	}
	for _, old := range []Node{4, 5} {
		if _, ok := remap[old]; ok {
			t.Errorf("vertex %d of the smaller SCC leaked into the remap", old)
		}
	}
	if err := scc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromWeightedEdgesErrorCases(t *testing.T) {
	// Out-of-range endpoints.
	if _, err := FromWeightedEdges(2, []WeightedEdge{{U: 0, V: 5, W: 1}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	// Zero weights are rejected (Dijkstra needs positive weights; negative
	// weights cannot even be represented in the uint32 field — the text
	// parser rejects them at parse time, see TestReadWeightedEdgeListErrors).
	if _, err := FromWeightedEdges(2, []WeightedEdge{{U: 0, V: 1, W: 0}}); err == nil {
		t.Error("zero-weight edge accepted")
	}
	// Self loops are dropped, not errors.
	g, err := FromWeightedEdges(3, []WeightedEdge{
		{U: 0, V: 0, W: 2}, {U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("self loop not dropped: %d edges, want 2", g.NumEdges())
	}
	// Duplicate edges keep the minimum weight, regardless of orientation.
	g, err = FromWeightedEdges(2, []WeightedEdge{
		{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge not merged: %d edges", g.NumEdges())
	}
	_, ws := g.Neighbors(0)
	if ws[0] != 4 {
		t.Errorf("duplicate edge kept weight %d, want the minimum 4", ws[0])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWeightedEdgeListErrors(t *testing.T) {
	bad := map[string]string{
		"negative weight": "0 1 -5\n",
		"zero weight":     "0 1 0\n",
		"missing weight":  "0 1\n",
		"huge weight":     "0 1 4294967296\n",
		"garbage weight":  "0 1 x\n",
	}
	for name, input := range bad {
		if _, err := ReadWeightedEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted %q", name, input)
		}
	}
	g, err := ReadWeightedEdgeList(strings.NewReader("# roads\n0 1 5\n1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d nodes, %d edges; want 3, 2", g.NumNodes(), g.NumEdges())
	}
}

func TestLargestComponentW(t *testing.T) {
	// A weighted triangle plus a separate weighted edge.
	g, err := FromWeightedEdges(5, []WeightedEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 4},
		{U: 3, V: 4, W: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	lcc, remap, err := LargestComponentW(g)
	if err != nil {
		t.Fatal(err)
	}
	if lcc.NumNodes() != 3 || lcc.NumEdges() != 3 {
		t.Fatalf("largest component has %d nodes, %d edges; want 3, 3", lcc.NumNodes(), lcc.NumEdges())
	}
	if len(remap) != 3 {
		t.Fatalf("remap has %d entries, want 3", len(remap))
	}
	if err := lcc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Weights survive the remap: the multiset must be {2,3,4}.
	sum := uint32(0)
	for v := 0; v < lcc.NumNodes(); v++ {
		adj, ws := lcc.Neighbors(Node(v))
		for i, u := range adj {
			if Node(v) < u {
				sum += ws[i]
			}
		}
	}
	if sum != 9 {
		t.Errorf("weights lost in remap: sum = %d, want 9", sum)
	}
	// Degenerate inputs fail loudly, mirroring LargestComponent.
	if _, _, err := LargestComponentW(nil); err == nil {
		t.Error("nil graph accepted")
	}
	empty, err := FromWeightedEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LargestComponentW(empty); err == nil {
		t.Error("edgeless graph accepted")
	}
}

func TestDirectedWeightedGenerators(t *testing.T) {
	dg := RandomDigraph(200, 1200, 7)
	if _, sizes := StronglyConnectedComponents(dg); len(sizes) != 1 {
		t.Fatalf("RandomDigraph produced %d SCCs, want 1 (strongly connected)", len(sizes))
	}
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}

	base := ErdosRenyi(300, 900, 3)
	wg := RandomWeights(base, 10, 4)
	if wg.NumNodes() != base.NumNodes() || wg.NumEdges() != base.NumEdges() {
		t.Fatalf("RandomWeights changed the topology: %d/%d -> %d/%d",
			base.NumNodes(), base.NumEdges(), wg.NumNodes(), wg.NumEdges())
	}
	if err := wg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range wg.W {
		if w < 1 || w > 10 {
			t.Fatalf("weight %d outside [1, 10]", w)
		}
	}
}

func TestDirectedWeightedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()

	dg := RandomDigraph(50, 300, 1)
	dpath := filepath.Join(dir, "d.txt")
	if err := SaveDigraphFile(dpath, dg); err != nil {
		t.Fatal(err)
	}
	dback, err := LoadDigraphFile(dpath)
	if err != nil {
		t.Fatal(err)
	}
	if dback.NumNodes() != dg.NumNodes() || dback.NumArcs() != dg.NumArcs() {
		t.Fatalf("digraph round trip: %d/%d -> %d/%d",
			dg.NumNodes(), dg.NumArcs(), dback.NumNodes(), dback.NumArcs())
	}

	wg := RandomWeights(ErdosRenyi(60, 200, 2), 8, 3)
	wpath := filepath.Join(dir, "w.txt")
	if err := SaveWGraphFile(wpath, wg); err != nil {
		t.Fatal(err)
	}
	wback, err := LoadWGraphFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	if wback.NumEdges() != wg.NumEdges() {
		t.Fatalf("weighted round trip: %d edges -> %d", wg.NumEdges(), wback.NumEdges())
	}
}

func TestDiameterHelpers(t *testing.T) {
	// A path on 4 vertices: diameter 3, vertex diameter 4.
	g := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	if d := Diameter(g); d != 3 {
		t.Errorf("Diameter = %d, want 3", d)
	}
	if vd := VertexDiameter(g); vd != 4 {
		t.Errorf("VertexDiameter = %d, want 4", vd)
	}
}

func TestLargestSCCRejectsDegenerateInputs(t *testing.T) {
	// Empty digraph (e.g. a comment-only arc-list file) and an acyclic
	// digraph (largest SCC is a single vertex) must error, not panic.
	if _, _, err := LargestSCC(nil); err == nil {
		t.Error("nil digraph accepted")
	}
	if _, _, err := LargestSCC(FromArcs(0, nil)); err == nil {
		t.Error("empty digraph accepted")
	}
	dag := FromArcs(3, [][2]Node{{0, 1}, {1, 2}})
	if _, _, err := LargestSCC(dag); err == nil {
		t.Error("acyclic digraph accepted (largest SCC is a single vertex)")
	}
}

// writeV1 writes g in the BCSR v1 layout (header, offsets, adjacency),
// which no writer in the module emits any more.
func writeV1(t *testing.T, path string, g *Graph) {
	t.Helper()
	var image bytes.Buffer
	for _, section := range []any{
		[]uint64{0x42435352<<32 | 1 /* "BCSR", version 1 */, uint64(g.NumNodes()), uint64(len(g.Adj))}, g.Offsets, g.Adj,
	} {
		if err := binary.Write(&image, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// LoadFile refuses BCSR v1 by content, whatever the file's name, with the
// typed version error pointing at graphconv.
func TestLoadFileRefusesBCSRv1(t *testing.T) {
	g := RMAT(Graph500(6, 8, 1))
	for _, name := range []string{"old.bcsr", "old.bin"} {
		path := filepath.Join(t.TempDir(), name)
		writeV1(t, path, g)
		_, err := LoadFile(path)
		var vErr *BCSRVersionError
		if !errors.As(err, &vErr) || vErr.Version != 1 || !strings.Contains(vErr.Error(), "graphconv") {
			t.Errorf("LoadFile(%s) error = %v, want BCSRVersionError{Version: 1} naming graphconv", name, err)
		}
	}
}

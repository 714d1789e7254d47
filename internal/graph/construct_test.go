package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// Property tests of the construction path (packed keys, radix sort, CSR
// layout, induced subgraphs) against naive map-based references, on random
// multigraphs with self loops and duplicates in shuffled and in sorted
// order. The shapes cover every branch of the sort: tiny graphs, sparse
// graphs whose buckets hold a key or two, dense ones with large buckets, a
// star whose keys all share the top digit, and 34-bit keys whose buckets
// take many narrow finishing passes.

type shape struct{ n, m int }

var shapes = []shape{
	{0, 0}, {1, 5}, {2, 9}, {3, 40}, {17, 300}, {300, 2000},
	{5000, 200000}, {70000, 5000}, {1 << 17, 60000},
}

// refCSR lays out weighted pairs (x, y) as a CSR the obvious way: x's list
// holds every y, sorted, with the pair's weight alongside.
func refCSR(n int, pairs map[[2]Node]uint32) (offsets []uint64, adj []Node, w []uint32) {
	lists := make([][][2]uint32, n) // (neighbour, weight)
	for p, wt := range pairs {
		lists[p[0]] = append(lists[p[0]], [2]uint32{p[1], wt})
	}
	offsets = make([]uint64, n+1)
	adj, w = []Node{}, []uint32{}
	for v, l := range lists {
		slices.SortFunc(l, func(a, b [2]uint32) int { return int(a[0]) - int(b[0]) })
		for _, x := range l {
			adj, w = append(adj, x[0]), append(w, x[1])
		}
		offsets[v+1] = uint64(len(adj))
	}
	return offsets, adj, w
}

// both returns each undirected edge {u, v} of edges as the pairs (u, v)
// and (v, u).
func both(edges map[[2]Node]uint32) map[[2]Node]uint32 {
	pairs := make(map[[2]Node]uint32, 2*len(edges))
	for e, w := range edges {
		pairs[e], pairs[[2]Node{e[1], e[0]}] = w, w
	}
	return pairs
}

func randomMultigraph(r *rng.Rand, s shape, star bool) []WeightedEdge {
	edges := make([]WeightedEdge, 0, s.m)
	if s.n == 0 {
		return edges
	}
	for i := 0; i < s.m; i++ {
		u, v := Node(r.Intn(s.n)), Node(r.Intn(s.n))
		switch {
		case star:
			u = 0
		case i%10 == 0:
			v = u // self loop
		case i%7 == 0 && i > 0:
			// duplicate of an earlier edge, reversed, with its own weight
			e := edges[r.Intn(len(edges))]
			u, v = e.V, e.U
		}
		edges = append(edges, WeightedEdge{U: u, V: v, W: uint32(1 + r.Intn(20))})
	}
	return edges
}

func sameCSR(t *testing.T, what string, offsets, wantOffsets []uint64, adj, wantAdj []Node) {
	t.Helper()
	if !slices.Equal(offsets, wantOffsets) {
		t.Fatalf("%s: offsets differ from the reference", what)
	}
	if !slices.Equal(adj, wantAdj) {
		t.Fatalf("%s: adjacency differs from the reference", what)
	}
}

func TestConstructionMatchesReference(t *testing.T) {
	r := rng.NewRand(41)
	for _, s := range append(shapes, shape{-1, 3000}) {
		star := s.n < 0
		if star {
			s.n = 4000
		}
		for _, sorted := range []bool{false, true} {
			t.Run(fmt.Sprintf("n%d_m%d_star%v_sorted%v", s.n, s.m, star, sorted), func(t *testing.T) {
				wedges := randomMultigraph(r, s, star)
				if sorted {
					canon := func(e WeightedEdge) [2]Node { return [2]Node{min(e.U, e.V), max(e.U, e.V)} }
					slices.SortStableFunc(wedges, func(a, b WeightedEdge) int {
						ca, cb := canon(a), canon(b)
						if ca[0] != cb[0] {
							return int(ca[0]) - int(cb[0])
						}
						return int(ca[1]) - int(cb[1])
					})
				}
				plain := make([][2]Node, len(wedges))
				unit := make(map[[2]Node]uint32)
				minW := make(map[[2]Node]uint32)
				for i, e := range wedges {
					plain[i] = [2]Node{e.U, e.V}
					if e.U == e.V {
						continue
					}
					k := [2]Node{min(e.U, e.V), max(e.U, e.V)}
					unit[k] = 1
					if w, ok := minW[k]; !ok || e.W < w {
						minW[k] = e.W
					}
				}

				g := FromEdges(s.n, plain)
				wantOff, wantAdj, _ := refCSR(s.n, both(unit))
				sameCSR(t, "FromEdges", g.Offsets, wantOff, g.Adj, wantAdj)

				wg, err := FromWeightedEdges(s.n, wedges)
				if err != nil {
					t.Fatal(err)
				}
				wantOff, wantAdj, wantW := refCSR(s.n, both(minW))
				sameCSR(t, "FromWeightedEdges", wg.Offsets, wantOff, wg.Adj, wantAdj)
				if !slices.Equal(wg.W, wantW) {
					t.Fatal("FromWeightedEdges: weights differ from the reference (duplicates keep the minimum)")
				}

				// Subgraph on a random set, given shuffled and with one ID
				// listed twice.
				var keep []Node
				for v := 0; v < s.n; v++ {
					if r.Intn(3) > 0 {
						keep = append(keep, Node(v))
					}
				}
				for i := len(keep) - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					keep[i], keep[j] = keep[j], keep[i]
				}
				if len(keep) > 0 {
					keep = append(keep, keep[0])
				}
				sub, remap := Subgraph(g, keep)
				distinct := slices.Compact(slices.Sorted(slices.Values(keep)))
				if sub.NumNodes() != len(distinct) || len(remap) != len(distinct) {
					t.Fatalf("Subgraph: %d vertices, %d mapped; want %d distinct IDs",
						sub.NumNodes(), len(remap), len(distinct))
				}
				wantRemap := make(map[Node]Node, len(distinct))
				for i, v := range distinct {
					wantRemap[v] = Node(i)
				}
				subEdges := make(map[[2]Node]uint32)
				for e := range unit {
					nu, okU := wantRemap[e[0]]
					nv, okV := wantRemap[e[1]]
					if okU && okV {
						subEdges[[2]Node{nu, nv}] = 1
					}
				}
				for v, nv := range wantRemap {
					if remap[v] != nv {
						t.Fatalf("Subgraph: remap[%d] = %d, want %d", v, remap[v], nv)
					}
				}
				wantOff, wantAdj, _ = refCSR(len(distinct), both(subEdges))
				sameCSR(t, "Subgraph", sub.Offsets, wantOff, sub.Adj, wantAdj)
				if err := sub.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLargestComponentWMatchesReference: the weighted LCC carries every
// arc's weight to its renumbered endpoints.
func TestLargestComponentWMatchesReference(t *testing.T) {
	r := rng.NewRand(42)
	wedges := randomMultigraph(r, shape{400, 300}, false)
	g, err := FromWeightedEdges(400, wedges)
	if err != nil {
		t.Fatal(err)
	}
	kept := largestComponent(g.Unweighted())
	if kept == nil {
		t.Fatal("test graph is connected; want several components")
	}
	sub, remap := LargestComponentW(g)
	want := make(map[[2]Node]uint32)
	for v := range g.NumNodes() {
		adj, ws := g.Neighbors(Node(v))
		for i, u := range adj {
			nv, okV := remap[Node(v)]
			nu, okU := remap[u]
			if okV && okU && nv < nu {
				want[[2]Node{nv, nu}] = ws[i]
			}
		}
	}
	wantOff, wantAdj, wantW := refCSR(len(kept), both(want))
	sameCSR(t, "LargestComponentW", sub.Offsets, wantOff, sub.Adj, wantAdj)
	if !slices.Equal(sub.W, wantW) {
		t.Fatal("LargestComponentW: weights differ from the reference")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

// refDigraph lays out a set of arcs as out- and in-CSRs the obvious way.
func refDigraph(n int, arcs map[[2]Node]bool) *Digraph {
	out, in := make(map[[2]Node]uint32), make(map[[2]Node]uint32)
	for a := range arcs {
		out[a], in[[2]Node{a[1], a[0]}] = 1, 1
	}
	oOff, oAdj, _ := refCSR(n, out)
	iOff, iAdj, _ := refCSR(n, in)
	return &Digraph{OutOffsets: oOff, OutAdj: oAdj, InOffsets: iOff, InAdj: iAdj}
}

func TestDirectedConstructionMatchesReference(t *testing.T) {
	r := rng.NewRand(43)
	for _, s := range append(shapes, shape{2000, 2600}) {
		t.Run(fmt.Sprintf("n%d_m%d", s.n, s.m), func(t *testing.T) {
			var arcs [][2]Node
			set := make(map[[2]Node]bool)
			for _, e := range randomMultigraph(r, s, false) {
				arcs = append(arcs, [2]Node{e.U, e.V})
				if e.U != e.V {
					set[[2]Node{e.U, e.V}] = true
				}
			}
			g := FromArcs(s.n, arcs)
			want := refDigraph(s.n, set)
			sameCSR(t, "FromArcs out", g.OutOffsets, want.OutOffsets, g.OutAdj, want.OutAdj)
			sameCSR(t, "FromArcs in", g.InOffsets, want.InOffsets, g.InAdj, want.InAdj)
			if s.n == 0 {
				return
			}
			scc, remap := LargestSCC(g)
			labels, sizes := StronglyConnectedComponents(g)
			best := slices.Index(sizes, slices.Max(sizes))
			i := 0
			for v, l := range labels {
				if l == int32(best) {
					if nv, ok := remap[Node(v)]; !ok || nv != Node(i) {
						t.Fatalf("LargestSCC: remap[%d] = %d, %v; want %d", v, nv, ok, i)
					}
					i++
				}
			}
			if len(remap) != i {
				t.Fatalf("LargestSCC: remap has %d entries, want %d", len(remap), i)
			}
			sub := make(map[[2]Node]bool)
			for a := range set {
				if labels[a[0]] == int32(best) && labels[a[1]] == int32(best) {
					sub[[2]Node{remap[a[0]], remap[a[1]]}] = true
				}
			}
			want = refDigraph(sizes[best], sub)
			sameCSR(t, "LargestSCC out", scc.OutOffsets, want.OutOffsets, scc.OutAdj, want.OutAdj)
			sameCSR(t, "LargestSCC in", scc.InOffsets, want.InOffsets, scc.InAdj, want.InAdj)
			if err := scc.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

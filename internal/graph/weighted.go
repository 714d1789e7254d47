package graph

import "fmt"

// WGraph is an immutable undirected graph with positive integer edge
// weights in CSR form, supporting the weighted variant of the sampling
// algorithm (paper footnote 1). Integer weights keep shortest-path
// comparisons and path counting exact — with floating-point weights, "equal
// length" becomes numerically ambiguous and the uniform-path sampling
// distribution ill-defined.
type WGraph struct {
	Offsets []uint64
	Adj     []Node
	// W[i] is the weight of the arc stored at Adj[i]; both directions of an
	// undirected edge carry the same weight.
	W []uint32
}

// WeightedEdge is one undirected input edge.
type WeightedEdge struct {
	U, V Node
	W    uint32
}

// NumNodes returns |V|.
func (g *WGraph) NumNodes() int { return len(g.Offsets) - 1 }

// NumEdges returns |E|.
func (g *WGraph) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the number of neighbours of v.
func (g *WGraph) Degree(v Node) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns v's neighbour list and the parallel weight slice.
func (g *WGraph) Neighbors(v Node) ([]Node, []uint32) {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	return g.Adj[lo:hi], g.W[lo:hi]
}

// FromWeightedEdges builds a weighted CSR graph. Self loops are dropped;
// duplicate edges keep the minimum weight; zero weights are rejected
// (Dijkstra requires positive weights, and zero-weight edges would make
// "shortest path" degenerate). It takes Builder's path: packed keys,
// radix-sorted with the weights carried along, laid out with every
// neighbour list already ascending.
func FromWeightedEdges(n int, edges []WeightedEdge) (*WGraph, error) {
	shift := keyShift(n)
	keys := make([]uint64, 0, len(edges))
	ws := make([]uint32, 0, len(edges))
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.W == 0 {
			return nil, fmt.Errorf("graph: zero-weight edge (%d,%d)", e.U, e.V)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		keys = append(keys, uint64(e.U)<<shift|uint64(e.V))
		ws = append(ws, e.W)
	}
	SortKeys(keys, ws, 2*shift)
	j := 0
	for i, k := range keys {
		if j > 0 && keys[j-1] == k {
			ws[j-1] = min(ws[j-1], ws[i])
			continue
		}
		keys[j], ws[j] = k, ws[i]
		j++
	}
	offsets, adj, w := csr(n, shift, keys[:j], ws[:j])
	return &WGraph{Offsets: offsets, Adj: adj, W: w}, nil
}

// LargestComponentW returns the induced weighted subgraph on the largest
// connected component of g (weights carried over), with the old->new vertex
// mapping — the weighted analogue of LargestComponent, mirroring the
// paper's §V-A preprocessing for the weighted estimation path. As there, a
// nil map means the graph was already connected and is returned as-is;
// otherwise the kept vertices are renumbered in ascending old-ID order and
// their arcs and weights copied straight across.
func LargestComponentW(g *WGraph) (*WGraph, map[Node]Node) {
	kept := largestComponent(g.Unweighted())
	if kept == nil {
		return g, nil
	}
	newID, remap := renumber(g.NumNodes(), kept)
	offsets, adj, w := induce(g.Offsets, g.Adj, g.W, kept, newID)
	return &WGraph{Offsets: offsets, Adj: adj, W: w}, remap
}

// Unweighted returns the underlying topology with weights forgotten.
func (g *WGraph) Unweighted() *Graph {
	return &Graph{Offsets: g.Offsets, Adj: g.Adj}
}

// Validate checks the weighted CSR invariants.
func (g *WGraph) Validate() error {
	if err := g.Unweighted().Validate(); err != nil {
		return err
	}
	if len(g.W) != len(g.Adj) {
		return fmt.Errorf("graph: weight array length mismatch")
	}
	for i, w := range g.W {
		if w == 0 {
			return fmt.Errorf("graph: zero weight at slot %d", i)
		}
	}
	// Symmetry of weights.
	for v := 0; v < g.NumNodes(); v++ {
		adj, ws := g.Neighbors(Node(v))
		for i, u := range adj {
			if Node(v) < u {
				uAdj, uWs := g.Neighbors(u)
				found := false
				for j, back := range uAdj {
					if back == Node(v) {
						if uWs[j] != ws[i] {
							return fmt.Errorf("graph: asymmetric weight on {%d,%d}", v, u)
						}
						found = true
					}
				}
				if !found {
					return fmt.Errorf("graph: missing reverse arc for {%d,%d}", v, u)
				}
			}
		}
	}
	return nil
}

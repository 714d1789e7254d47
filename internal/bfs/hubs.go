package bfs

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Hubs is the adjacency of a graph's K highest-degree vertices, the hubs,
// as a bit matrix: bit (i, j) is set iff there is an arc hub_i -> hub_j. A
// Sampler's probe and walk test arcs between two frontiers, and on a
// power-law graph most such tests join two vertices of the dense core, whose
// lists are the longest to binary-search; between two hubs the matrix
// answers with one bit.
//
// K = min(n, ⌊√(8m)⌋), m counting edges (arcs on a digraph), so the matrix
// takes at most m bytes, an eighth of the CSR adjacency; with the 4-byte
// vertex-to-hub index the whole costs 4n + K²/8 bytes, built once per graph
// and shared read-only by every sampler over it. A vertex's degree here
// counts its entries in both views (out plus in on a digraph), and ties go
// to the lower vertex ID. K is a function of the graph alone, so
// every rank and every restored session builds the same matrix; the matrix
// changes which test answers, never the answer, and so never a sample.
type Hubs struct {
	row  []int32  // vertex -> hub index; -1 for a non-hub
	k    uint     // number of hubs
	bits []uint64 // bit i*k+j: arc hub_i -> hub_j
}

// NewHubs builds the hub matrix of the undirected graph g.
func NewHubs(g *graph.Graph) *Hubs {
	return newHubs(g, g, g.NumEdges())
}

// NewDirectedHubs builds the hub matrix of the digraph g, over its arcs.
func NewDirectedHubs(g *graph.Digraph) *Hubs {
	return newHubs(
		&graph.Graph{Offsets: g.OutOffsets, Adj: g.OutAdj},
		&graph.Graph{Offsets: g.InOffsets, Adj: g.InAdj}, g.NumArcs())
}

// newHubs builds the matrix of the arcs of fwd (bwd is its transpose) over
// m edges. It picks the hubs in O(n + max degree) through a degree
// histogram, then sets one bit per hub arc with a scan of the hubs' lists.
func newHubs(fwd, bwd *graph.Graph, m int) *Hubs {
	n := fwd.NumNodes()
	k := hubCount(n, m)
	h := &Hubs{row: make([]int32, n), k: uint(k), bits: make([]uint64, (k*k+63)/64)}
	deg := func(v int) int { return fwd.Degree(graph.Node(v)) + bwd.Degree(graph.Node(v)) }

	// The hubs are the vertices above the threshold degree cut plus the
	// lowest IDs at cut itself, tied of them. They are indexed by rank,
	// highest degree first (a counting sort over the histogram), so the
	// pairs probed most often share the matrix's first rows.
	maxDeg := 0
	for v := range n {
		maxDeg = max(maxDeg, deg(v))
	}
	next := make([]int32, maxDeg+1)
	for v := range n {
		next[deg(v)]++
	}
	cut, tied, rank := maxDeg, int32(k), int32(0)
	for ; next[cut] < tied; cut-- {
		tied -= next[cut]
		next[cut], rank = rank, rank+next[cut]
	}
	next[cut] = rank
	for v := range n {
		h.row[v] = -1
		if d := deg(v); d > cut || d == cut && tied > 0 {
			if d == cut {
				tied--
			}
			h.row[v] = next[d]
			next[d]++
		}
	}

	// Each hub's row: gather its hub neighbours' columns without a branch
	// (about half of a hub's neighbours are hubs, so a branch per arc
	// mispredicts), into next, which no longer holds anything and is long
	// enough for any list, then set their bits.
	cols := next
	for u, i := range h.row {
		if i < 0 {
			continue
		}
		c := 0
		for _, w := range fwd.Neighbors(graph.Node(u)) {
			j := h.row[w]
			cols[c] = j
			c += int(uint32(^j) >> 31) // keep j iff j >= 0
		}
		for _, j := range cols[:c] {
			b := uint(i)*h.k + uint(j)
			h.bits[b/64] |= 1 << (b % 64)
		}
	}
	return h
}

// hubCount is K = min(n, ⌊√(8m)⌋).
func hubCount(n, m int) int {
	k := int(math.Sqrt(8 * float64(m)))
	for k*k > 8*m {
		k--
	}
	for (k+1)*(k+1) <= 8*m {
		k++
	}
	return min(n, k)
}

// arc reports whether u->w is an arc of g, whose transpose is gt, where back
// says g is the sampler's bwd view (whose arcs are the matrix's transposed).
// Between two hubs it reads the matrix; otherwise it binary-searches the
// shorter of u's list in g and w's list in gt.
//
//bc:hotpath
func (h *Hubs) arc(g, gt *graph.Graph, back bool, u, w graph.Node) bool {
	if i, j := h.row[u], h.row[w]; i|j >= 0 {
		if back {
			i, j = j, i
		}
		b := uint(i)*h.k + uint(j)
		return h.bits[b/64]&(1<<(b%64)) != 0
	}
	adj, key := g.Neighbors(u), w
	if in := gt.Neighbors(w); len(in) < len(adj) {
		adj, key = in, u
	}
	_, ok := slices.BinarySearch(adj, key)
	return ok
}

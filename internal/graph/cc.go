package graph

import "slices"

// ConnectedComponents labels each vertex with a component ID in [0, k) and
// returns the labels and the component sizes. It runs a sequence of BFS
// sweeps using an explicit queue (no recursion), so it handles path graphs of
// arbitrary length.
func ConnectedComponents(g *Graph) (labels []int32, sizes []int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]Node, 0, 1024)
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(len(sizes))
		labels[start] = id
		size := 1
		queue = append(queue[:0], Node(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] < 0 {
					labels[w] = id
					size++
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// LargestComponent returns the induced subgraph on the largest connected
// component, as the paper does for disconnected inputs (§V-A: "For
// disconnected graphs, we consider the largest connected component)".
// The second return value maps old vertex IDs to new ones for vertices
// that were kept; a nil map means the graph was already connected and is
// returned as-is (identity mapping). The nil convention matters at
// billion-edge scale: the connected fast path must not materialize an
// n-entry identity map — or copy the graph — when the input is a mapped
// BCSR v2 file served straight off the page cache.
//
// Otherwise the kept vertices are renumbered in ascending old-ID order and
// their lists copied straight across, as in Subgraph.
func LargestComponent(g *Graph) (*Graph, map[Node]Node) {
	kept := largestComponent(g)
	if kept == nil {
		return g, nil
	}
	newID, remap := renumber(g.NumNodes(), kept)
	offsets, adj, _ := induce(g.Offsets, g.Adj, nil, kept, newID)
	return &Graph{Offsets: offsets, Adj: adj}, remap
}

// largestComponent returns the vertices of g's largest connected component
// in ascending order, or nil when g has at most one component.
func largestComponent(g *Graph) []Node {
	labels, sizes := ConnectedComponents(g)
	if len(sizes) <= 1 {
		return nil
	}
	return largestLabel(labels, sizes)
}

// largestLabel returns, in ascending order, the vertices carrying the label
// of the largest component in a labelling (labels, sizes); ties go to the
// lowest label.
func largestLabel(labels []int32, sizes []int) []Node {
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	kept := make([]Node, 0, sizes[best])
	for v, l := range labels {
		if l == int32(best) {
			kept = append(kept, Node(v))
		}
	}
	return kept
}

// Subgraph returns the induced subgraph on keep (a set of vertex IDs),
// together with the mapping oldID -> newID. Vertices are renumbered
// 0..k-1 in ascending order of old ID, where k counts the distinct IDs in
// keep: an ID listed twice is one vertex. It panics if an ID is out of
// range.
func Subgraph(g *Graph, keep []Node) (*Graph, map[Node]Node) {
	kept := slices.Clone(keep)
	slices.Sort(kept)
	kept = slices.Compact(kept)
	newID, remap := renumber(g.NumNodes(), kept)
	offsets, adj, _ := induce(g.Offsets, g.Adj, nil, kept, newID)
	return &Graph{Offsets: offsets, Adj: adj}, remap
}

// renumber maps the kept vertices (ascending, distinct IDs of an n-vertex
// graph) to 0..len(kept)-1 in that order: newID is the table the copy reads,
// one lookup per arc, with InvalidNode for every vertex not kept; remap is
// the same mapping as the map the public API returns.
func renumber(n int, kept []Node) (newID []Node, remap map[Node]Node) {
	newID = make([]Node, n)
	for i := range newID {
		newID[i] = InvalidNode
	}
	remap = make(map[Node]Node, len(kept))
	for i, v := range kept {
		newID[v] = Node(i)
		remap[v] = Node(i)
	}
	return newID, remap
}

// induce copies the lists of the kept vertices out of a CSR (offsets, adj
// and arc weights w, or nil), renamed through newID, dropping the arcs that
// leave the set. The renumbering is monotone, so each list stays ascending
// and duplicate-free. The arrays are sized by the kept vertices' degrees,
// which is exact for a connected component, since no arc leaves one.
func induce(offsets []uint64, adj []Node, w []uint32, kept, newID []Node) (sOffsets []uint64, sAdj []Node, sW []uint32) {
	var arcs uint64
	for _, v := range kept {
		arcs += offsets[v+1] - offsets[v]
	}
	sOffsets = make([]uint64, len(kept)+1)
	sAdj = make([]Node, 0, arcs)
	if w != nil {
		sW = make([]uint32, 0, arcs)
	}
	for i, v := range kept {
		for j := offsets[v]; j < offsets[v+1]; j++ {
			if x := newID[adj[j]]; x != InvalidNode {
				sAdj = append(sAdj, x)
				if w != nil {
					sW = append(sW, w[j])
				}
			}
		}
		sOffsets[i+1] = uint64(len(sAdj))
	}
	return sOffsets, sAdj, sW
}

// IsConnected reports whether g has exactly one connected component
// (the empty graph counts as connected).
func IsConnected(g *Graph) bool {
	_, sizes := ConnectedComponents(g)
	return len(sizes) <= 1
}

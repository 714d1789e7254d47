package kadabra

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

// Weighted-graph support (paper footnote 1). The statistical machinery is
// unchanged; only the sampler (Dijkstra-based, bfs.WeightedSampler) and the
// vertex-diameter bound differ.

// WeightedVertexDiameter returns an upper bound on the weighted vertex
// diameter of the connected graph behind the view g: the maximum number of
// VERTICES on any minimum-weight path, ties included, which is what omega's
// sample-complexity term needs (not the weighted diameter itself). For a
// pivot r whose two largest distances are e1 >= e2, any two vertices are at
// most e1 + e2 apart (through r), and a path of that weight has at most
// (e1+e2)/w_min arcs, w_min the lightest arc weight. The bound is minimised
// over two pivots, the max-degree vertex and its farthest vertex, and capped
// at n. It is a function of the graph alone: no seed, no sampling.
func WeightedVertexDiameter(g *bfs.ArcsByWeight) int {
	n := g.NumNodes()
	wmin := g.MinWeight()
	if n <= 1 || wmin == 0 {
		return n
	}
	e1, e2, far := g.Eccentricity(maxDegreeW(g))
	f1, f2, _ := g.Eccentricity(far)
	return int(min(uint64(n), (e1+e2)/wmin+1, (f1+f2)/wmin+1))
}

func maxDegreeW(g *bfs.ArcsByWeight) graph.Node {
	best, bestDeg := graph.Node(0), -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > bestDeg {
			best, bestDeg = graph.Node(v), d
		}
	}
	return best
}

package kadabra

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

// Directed-graph support, per the paper's footnote 1: "The parallelization
// techniques considered in this paper also apply to directed ... graphs if
// the required modifications to the underlying sampling algorithm are done."
// The modification is nil at the kernel: bfs.Sampler grows its forward ball
// over one CSR view and its backward ball over another, and
// bfs.NewDirectedSampler hands it the out-arcs and the stored transpose
// where an undirected graph is its own transpose. The statistical machinery
// (omega, f/g, calibration) is direction-agnostic.
//
// The input must be strongly connected (use graph.LargestSCC), mirroring
// the undirected largest-component preprocessing: on a strongly connected
// graph every sampled pair yields a path, and the vertex-diameter bound
// below is valid.

// DirectedVertexDiameter returns an upper bound on the directed vertex
// diameter of a strongly connected digraph: for any pivot v and all (u, w),
// d(u, w) <= d(u, v) + d(v, w) <= becc(v) + fecc(v), where fecc/becc are
// the forward/backward eccentricities of v, one BFS each over the out-arc
// and in-arc views. The bound is minimized over a few pivots (max-out-degree
// and the farthest vertices found), the standard cheap directed bound.
func DirectedVertexDiameter(g *graph.Digraph) int {
	n := g.NumNodes()
	if n <= 1 {
		return n
	}
	fwd := bfs.New(&graph.Graph{Offsets: g.OutOffsets, Adj: g.OutAdj})
	bwd := bfs.New(&graph.Graph{Offsets: g.InOffsets, Adj: g.InAdj})
	// Pivot 1: max out-degree vertex.
	pivot := graph.Node(0)
	bestDeg := -1
	for v := 0; v < n; v++ {
		if d := g.OutDegree(graph.Node(v)); d > bestDeg {
			bestDeg, pivot = d, graph.Node(v)
		}
	}
	f, farF := fwd.Eccentricity(pivot)
	b, farB := bwd.Eccentricity(pivot)
	best := f + b
	for _, p := range []graph.Node{farF, farB} {
		f, _ := fwd.Eccentricity(p)
		b, _ := bwd.Eccentricity(p)
		best = min(best, f+b)
	}
	return int(best) + 1
}

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
// the forward/backward eccentricities of v. The bound is minimized over a
// few pivots (max-out-degree and the farthest vertices found), the standard
// cheap directed bound.
func DirectedVertexDiameter(g *graph.Digraph) int {
	n := g.NumNodes()
	if n <= 1 {
		return n
	}
	// Forward/backward BFS eccentricities from a pivot.
	ecc := func(start graph.Node, forward bool) (uint32, graph.Node) {
		dist := make([]uint32, n)
		for i := range dist {
			dist[i] = bfs.Unreached
		}
		dist[start] = 0
		queue := []graph.Node{start}
		far := start
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			var neigh []graph.Node
			if forward {
				neigh = g.Successors(v)
			} else {
				neigh = g.Predecessors(v)
			}
			for _, w := range neigh {
				if dist[w] == bfs.Unreached {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
					far = w
				}
			}
		}
		return dist[far], far
	}
	// Pivot 1: max out-degree vertex.
	pivot := graph.Node(0)
	bestDeg := -1
	for v := 0; v < n; v++ {
		if d := g.OutDegree(graph.Node(v)); d > bestDeg {
			bestDeg, pivot = d, graph.Node(v)
		}
	}
	best := uint32(1<<31 - 1)
	pivots := []graph.Node{pivot}
	f1, farF := ecc(pivot, true)
	b1, farB := ecc(pivot, false)
	if f1+b1 < best {
		best = f1 + b1
	}
	pivots = append(pivots, farF, farB)
	for _, p := range pivots[1:] {
		f, _ := ecc(p, true)
		b, _ := ecc(p, false)
		if f+b < best {
			best = f + b
		}
	}
	return int(best) + 1
}

package kadabra

import (
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Weighted-graph support (paper footnote 1). The statistical machinery is
// unchanged; only the sampler (Dijkstra-based, bfs.WeightedSampler) and the
// vertex-diameter bound differ.

// WeightedVertexDiameter estimates an upper bound on the weighted vertex
// diameter — the maximum number of VERTICES on any minimum-weight path,
// which is what omega's sample-complexity term needs (not the weighted
// diameter itself). It samples minimum-weight paths from a few pivots,
// takes the maximum hop count observed, and doubles it: any shortest u-w
// path is hop-wise at most the u->pivot plus pivot->w paths only when it
// passes the pivot, so the doubling provides headroom for paths that do
// not. Equal-weight paths differ in hops and the sampler picks among them
// at random, so the bound depends on the seed. This mirrors the estimation
// approach used in practice (a pessimistic bound only slows the algorithm
// down; correctness is unaffected because the adaptive stopping condition
// still certifies the error bounds).
func WeightedVertexDiameter(g *graph.WGraph, seed uint64) int {
	n := g.NumNodes()
	if n <= 1 {
		return n
	}
	r := rng.NewRand(seed)
	ws := bfs.NewWeightedSampler(g, r)
	maxHops := 0
	// Sweep from the max-degree vertex and a few random ones: for each, use
	// sampled far pairs to probe tree depth via path lengths.
	pivots := []graph.Node{maxDegreeW(g)}
	for i := 0; i < 3; i++ {
		pivots = append(pivots, graph.Node(r.Intn(n)))
	}
	for _, p := range pivots {
		for probe := 0; probe < 8; probe++ {
			t := graph.Node(r.Intn(n))
			if t == p {
				continue
			}
			if internal, ok := ws.SamplePath(p, t); ok {
				if h := len(internal) + 1; h > maxHops {
					maxHops = h
				}
			}
		}
	}
	vd := 2*maxHops + 2
	if vd > n {
		vd = n
	}
	if vd < 2 {
		vd = 2
	}
	return vd
}

func maxDegreeW(g *graph.WGraph) graph.Node {
	best, bestDeg := graph.Node(0), -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > bestDeg {
			best, bestDeg = graph.Node(v), d
		}
	}
	return best
}

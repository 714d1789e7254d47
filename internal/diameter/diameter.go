// Package diameter computes graph diameters for unweighted undirected
// graphs. KADABRA's phase 1 (paper §III-A) needs an upper bound on the
// vertex diameter (the number of vertices on a longest shortest path,
// diameter+1 on connected unweighted graphs) to compute the maximal sample
// count omega.
//
// Like the paper (which uses the BFS-based method of Borassi et al. [6]), we
// rely on BFS pruning techniques rather than all-pairs computation:
//
//   - DoubleSweep gives a fast lower bound (and a decent starting point);
//   - IFUB (iterative Fringe Upper Bound, Crescenzi et al.) computes the
//     exact diameter. Every sweep also bounds the eccentricity of each
//     vertex it reaches (ecc(w) <= ecc(v) + d(v, w), the refinement of
//     Borassi et al.'s SumSweep and Takes & Kosters' BoundingDiameters), and
//     fringe vertices whose bound cannot beat the current lower bound are
//     never swept. Measured sweeps, whole fringe levels -> with pruning:
//     120x120 lattice 4009 -> 20, 240x240 16478 -> 24, R-MAT 2^16 77 -> 6.
//
// All functions treat a disconnected graph as the maximum over reachable
// pairs from the chosen roots; callers are expected to pass the largest
// connected component (as the paper does, §V-A).
package diameter

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

// DoubleSweep returns a lower bound on the diameter: BFS from start to the
// farthest vertex u, then BFS from u; the second eccentricity is the bound.
// On trees it is exact; on real-world graphs it is usually exact or within
// one or two of the true value.
func DoubleSweep(g *graph.Graph, start graph.Node) uint32 {
	if g.NumNodes() == 0 {
		return 0
	}
	b := bfs.New(g)
	_, u := b.Eccentricity(start)
	ecc, _ := b.Eccentricity(u)
	return ecc
}

// IFUB computes the exact diameter of the connected graph g using the
// iterative fringe upper bound method.
//
// The method roots a BFS at a high-eccentricity-ish vertex r (we use the
// midpoint of a double sweep, the standard choice), then processes fringe
// vertices level by level from the deepest level i downwards. The invariant
// is: every vertex deeper than i has eccentricity <= lb (the best
// eccentricity found), so any pair farther apart than lb lies within level
// i of r and is at most 2i apart; once lb reaches 2i it is the diameter.
//
// Pruning rule: every sweep the function runs anyway (max-degree root, u,
// the midpoint, each fringe vertex) tightens hi[w], a per-vertex upper
// bound on ecc(w), and a fringe vertex with hi[w] <= lb is skipped without
// a sweep. It could not have raised lb, so the invariant above holds
// unchanged and the result is the same exact value. hi costs 4n bytes for
// the duration of the call.
func IFUB(g *graph.Graph) uint32 {
	d, _ := ifub(g)
	return d
}

// ifub is IFUB, also reporting how many fringe sweeps it ran.
func ifub(g *graph.Graph) (diam uint32, fringeSweeps int) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	b := bfs.New(g)
	hi := make([]uint32, n)
	for i := range hi {
		hi[i] = bfs.Unreached
	}

	// Choose the root: midpoint of the double-sweep path.
	sweep(b, g.MaxDegreeNode(), hi)
	u := b.Levels()[b.NumReached()-1]
	_, dist := sweep(b, u, hi)
	// farthest from u:
	var v graph.Node
	var lb uint32 // double-sweep lower bound
	for i := 0; i < n; i++ {
		if dist[i] != bfs.Unreached && dist[i] >= lb {
			lb, v = dist[i], graph.Node(i)
		}
	}
	// Walk back from v toward u picking a midpoint vertex.
	mid := midpoint(g, dist, v)

	maxLevel, dist := sweep(b, mid, hi)
	// Bucket vertices by level.
	levels := make([][]graph.Node, maxLevel+1)
	for i := 0; i < n; i++ {
		if d := dist[i]; d != bfs.Unreached {
			levels[d] = append(levels[d], graph.Node(i))
		}
	}

	for i := int(maxLevel); i > 0; i-- {
		if lb >= uint32(2*i) {
			return lb, fringeSweeps
		}
		for _, w := range levels[i] {
			if hi[w] <= lb {
				continue
			}
			ecc, _ := sweep(b, w, hi)
			fringeSweeps++
			lb = max(lb, ecc)
			if lb >= uint32(2*i) {
				return lb, fringeSweeps
			}
		}
	}
	return lb, fringeSweeps
}

// sweep runs a BFS from src and folds what it proves into hi: for every
// reached w, ecc(w) <= ecc(src) + d(src, w). It returns ecc(src) and the
// distance array (owned by b). Only the reached vertices are folded — an
// Unreached distance would wrap the sum and mark the vertex prunable.
func sweep(b *bfs.BFS, src graph.Node, hi []uint32) (ecc uint32, dist []uint32) {
	dist = b.Run(src)
	reached := b.Levels()
	ecc = dist[reached[len(reached)-1]]
	for _, w := range reached {
		hi[w] = min(hi[w], ecc+dist[w])
	}
	return ecc, dist
}

// midpoint returns a vertex halfway along some shortest path from the BFS
// source of dist to v.
func midpoint(g *graph.Graph, dist []uint32, v graph.Node) graph.Node {
	target := dist[v] / 2
	cur := v
	for dist[cur] > target {
		// step to any predecessor
		for _, w := range g.Neighbors(cur) {
			if dist[w]+1 == dist[cur] {
				cur = w
				break
			}
		}
	}
	return cur
}

// VertexDiameter returns the vertex diameter (number of vertices on a
// longest shortest path): diameter + 1 for nonempty connected graphs. This
// is the quantity KADABRA's omega formula consumes.
func VertexDiameter(g *graph.Graph) int {
	if g.NumNodes() == 0 {
		return 0
	}
	if g.NumNodes() == 1 {
		return 1
	}
	return int(IFUB(g)) + 1
}

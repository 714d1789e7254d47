// Package bfs provides breadth-first-search kernels: plain single-source
// BFS (used by connected components, diameter computation and the exact
// Brandes baseline), the balanced bidirectional BFS shortest-path sampler
// that KADABRA uses to draw one uniform shortest path per sample (paper
// §III-A, improvement (ii) over the RK algorithm), its goal-directed ALT A*
// counterpart for unweighted graphs of high diameter, and the bidirectional
// Dijkstra sampler for weighted graphs.
//
// All kernels carry reusable workspaces: the adaptive sampling phase calls
// the sampler millions of times, so per-call allocations and O(|V|) clears
// are avoided via visit stamps.
package bfs

import (
	"math"

	"repro/internal/graph"
)

// Unreached marks vertices not reached by a traversal.
const Unreached = uint32(math.MaxUint32)

// BFS is a reusable single-source BFS workspace.
type BFS struct {
	g     *graph.Graph
	dist  []uint32
	queue []graph.Node
}

// New returns a BFS workspace for g.
func New(g *graph.Graph) *BFS {
	return &BFS{
		g:     g,
		dist:  make([]uint32, g.NumNodes()),
		queue: make([]graph.Node, 0, 1024),
	}
}

// Run performs a BFS from source and returns the distance array, which is
// owned by the workspace and overwritten by the next Run. Unreached vertices
// have distance Unreached.
func (b *BFS) Run(source graph.Node) []uint32 {
	for i := range b.dist {
		b.dist[i] = Unreached
	}
	b.dist[source] = 0
	b.queue = append(b.queue[:0], source)
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		dv := b.dist[v]
		for _, w := range b.g.Neighbors(v) {
			if b.dist[w] == Unreached {
				b.dist[w] = dv + 1
				b.queue = append(b.queue, w)
			}
		}
	}
	return b.dist
}

// Eccentricity runs a BFS from source and returns the maximum finite
// distance and the farthest vertex. Used by diameter heuristics.
func (b *BFS) Eccentricity(source graph.Node) (ecc uint32, farthest graph.Node) {
	b.Run(source)
	// The queue is in settle order; the last settled vertex is farthest.
	farthest = b.queue[len(b.queue)-1]
	return b.dist[farthest], farthest
}

// NumReached reports how many vertices the last Run reached.
func (b *BFS) NumReached() int { return len(b.queue) }

// Levels returns the settle order of the last Run (a queue of vertices in
// non-decreasing distance order). The slice is owned by the workspace.
func (b *BFS) Levels() []graph.Node { return b.queue }

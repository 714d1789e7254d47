package bfs

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Sampler draws uniform random shortest paths between uniform random vertex
// pairs, the elementary operation of KADABRA (paper §III-A). It uses a
// balanced bidirectional BFS: two BFS balls are grown from s and t, always
// expanding the side whose frontier has fewer outgoing edges, until the
// balls touch. The number of graph accesses is typically orders of magnitude
// below a full BFS on complex networks, which is what makes billion-edge
// sampling feasible.
//
// One kernel serves undirected and directed graphs (the paper's footnote 1)
// through two CSR views. The s ball grows along fwd, the t ball along bwd:
// for an undirected graph both are the caller's *graph.Graph (the pointer
// itself, so an mmap'd graph stays reachable and an emptied one panics on
// an index instead of faulting); for a Digraph fwd is the out-adjacency and
// bwd the in-adjacency (the stored transpose, as in the paper's NetworKit
// setup, §IV-F). A vertex's BFS predecessors sit across the arcs its ball
// was grown along, so walk scans the opposite view of the side it walks:
// toward s it reads bwd (in-neighbours), toward t it reads fwd.
//
// A Sampler is not safe for concurrent use; each sampling thread owns one.
// The backing graph is shared and read-only.
type Sampler struct {
	fwd, bwd *graph.Graph
	rng      *rng.Rand

	// Per-side BFS state, validity gated by stamp to avoid O(|V|) clears.
	stampS, stampT []uint32
	distS, distT   []uint32
	sigS, sigT     []float64
	cur            uint32

	frontS, frontT []graph.Node
	nextF          []graph.Node
	meet           []graph.Node
	path           []graph.Node
}

// NewSampler creates a sampler over the undirected graph g using the given
// private RNG.
func NewSampler(g *graph.Graph, r *rng.Rand) *Sampler {
	return newSampler(g, g, r)
}

// NewDirectedSampler creates a sampler over the digraph g: shortest s->t
// paths follow arc directions.
func NewDirectedSampler(g *graph.Digraph, r *rng.Rand) *Sampler {
	return newSampler(
		&graph.Graph{Offsets: g.OutOffsets, Adj: g.OutAdj},
		&graph.Graph{Offsets: g.InOffsets, Adj: g.InAdj}, r)
}

func newSampler(fwd, bwd *graph.Graph, r *rng.Rand) *Sampler {
	n := fwd.NumNodes()
	return &Sampler{
		fwd:    fwd,
		bwd:    bwd,
		rng:    r,
		stampS: make([]uint32, n),
		stampT: make([]uint32, n),
		distS:  make([]uint32, n),
		distT:  make([]uint32, n),
		sigS:   make([]float64, n),
		sigT:   make([]float64, n),
		frontS: make([]graph.Node, 0, 256),
		frontT: make([]graph.Node, 0, 256),
		nextF:  make([]graph.Node, 0, 256),
		meet:   make([]graph.Node, 0, 64),
		path:   make([]graph.Node, 0, 64),
	}
}

// SamplePair picks a uniform random pair (s, t), s != t.
//
//bc:hotpath
func (sp *Sampler) SamplePair() (s, t graph.Node) {
	n := sp.fwd.NumNodes()
	s = graph.Node(sp.rng.Intn(n))
	t = graph.Node(sp.rng.Intn(n - 1))
	if t >= s {
		t++
	}
	return s, t
}

// Sample draws one sample: a uniform random pair and, if the pair is
// connected, a uniform random shortest path between them. It returns the
// path's internal vertices (endpoints excluded) in a slice owned by the
// sampler (valid until the next call), and ok=false if s and t are
// disconnected (the sample then contributes to no vertex but still counts
// toward tau, per KADABRA).
//
//bc:hotpath
func (sp *Sampler) Sample() (internal []graph.Node, ok bool) {
	s, t := sp.SamplePair()
	return sp.SamplePath(s, t)
}

// SamplePath draws a uniform random shortest s-t path (s->t along arc
// directions on a digraph) via balanced bidirectional BFS. See Sample for
// the return convention.
//
//bc:hotpath
func (sp *Sampler) SamplePath(s, t graph.Node) (internal []graph.Node, ok bool) {
	if s == t {
		return nil, false
	}
	sp.cur++
	if sp.cur == 0 { // stamp wrapped: invalidate everything once
		for i := range sp.stampS {
			sp.stampS[i] = 0
			sp.stampT[i] = 0
		}
		sp.cur = 1
	}
	cur := sp.cur
	sp.stampS[s], sp.distS[s], sp.sigS[s] = cur, 0, 1
	sp.stampT[t], sp.distT[t], sp.sigT[t] = cur, 0, 1
	sp.frontS = append(sp.frontS[:0], s)
	sp.frontT = append(sp.frontT[:0], t)
	if sp.fwd.Degree(s) == 0 || sp.bwd.Degree(t) == 0 {
		return nil, false
	}

	// Expand the cheaper side until the balls meet or a side dies.
	for {
		expandS := frontierCost(sp.fwd, sp.frontS) <= frontierCost(sp.bwd, sp.frontT)
		if sp.expand(expandS) {
			break
		}
		if (expandS && len(sp.frontS) == 0) || (!expandS && len(sp.frontT) == 0) {
			return nil, false // ball exhausted: t is unreachable from s
		}
	}

	// sp.meet holds the meeting vertices x with distS[x]+distT[x] == D.
	// Total path count and weighted meeting-vertex selection.
	total := 0.0
	for _, x := range sp.meet {
		total += sp.sigS[x] * sp.sigT[x]
	}
	pick := sp.rng.Float64() * total
	x := sp.meet[len(sp.meet)-1]
	for _, cand := range sp.meet {
		w := sp.sigS[cand] * sp.sigT[cand]
		if pick < w {
			x = cand
			break
		}
		pick -= w
	}

	// Walk from x back to s and forward to t, sampling predecessors
	// proportionally to their path counts; collect internal vertices.
	sp.path = sp.path[:0]
	sp.walk(x, s, true)
	// reverse the s-side prefix so the path reads s..t (order irrelevant for
	// counting, but useful for tests that validate the path).
	for i, j := 0, len(sp.path)-1; i < j; i, j = i+1, j-1 {
		sp.path[i], sp.path[j] = sp.path[j], sp.path[i]
	}
	if x != s && x != t {
		sp.path = append(sp.path, x)
	}
	sp.walk(x, t, false)
	return sp.path, true
}

// frontierCost estimates the work to expand a frontier: the sum of its
// degrees in the view its side scans.
//
//bc:hotpath
func frontierCost(g *graph.Graph, front []graph.Node) uint64 {
	var c uint64
	for _, v := range front {
		c += uint64(g.Degree(v))
	}
	return c
}

// expand grows one side's ball by one level. It returns true when the
// expansion discovered the meeting set (filling sp.meet), meaning the
// shortest s-t distance is now known.
//
// Correctness: every shortest s-t path of length D visits exactly one vertex
// at s-distance i for each i in [0, D]. After the s side settles radius L and
// the t side radius L', all paths are longer than L+L' as long as no settled
// vertex carries both stamps. When expanding the s side to level L+1, any
// shortest path of length D <= L+1+L' has its (L+1)-th vertex settled by both
// sides, so collecting new-frontier vertices carrying the t stamp and keeping
// those minimizing distS+distT finds all meeting vertices of all shortest
// paths. Path counts sigma are exact because BFS is level-synchronous.
//
//bc:hotpath
func (sp *Sampler) expand(sSide bool) bool {
	var g *graph.Graph
	var front *[]graph.Node
	var stamp, otherStamp, dist, otherDist []uint32
	var sig []float64
	if sSide {
		g, front = sp.fwd, &sp.frontS
		stamp, otherStamp = sp.stampS, sp.stampT
		dist, otherDist = sp.distS, sp.distT
		sig = sp.sigS
	} else {
		g, front = sp.bwd, &sp.frontT
		stamp, otherStamp = sp.stampT, sp.stampS
		dist, otherDist = sp.distT, sp.distS
		sig = sp.sigT
	}
	cur := sp.cur
	next := sp.nextF[:0]
	sp.meet = sp.meet[:0]
	bestMeet := Unreached
	for _, u := range *front {
		du := dist[u]
		su := sig[u]
		for _, w := range g.Neighbors(u) {
			if stamp[w] != cur {
				stamp[w] = cur
				dist[w] = du + 1
				sig[w] = su
				next = append(next, w)
				if otherStamp[w] == cur {
					d := du + 1 + otherDist[w]
					if d < bestMeet {
						bestMeet = d
						sp.meet = sp.meet[:0]
					}
					if d == bestMeet {
						sp.meet = append(sp.meet, w)
					}
				}
			} else if dist[w] == du+1 {
				sig[w] += su
			}
		}
	}
	sp.nextF = (*front)[:0]
	*front = next
	return len(sp.meet) > 0
}

// walk samples a shortest path from x toward target (distance 0 end) on one
// side, appending internal vertices to sp.path. When toS is true it walks the
// s side (appending before x conceptually; caller reverses), otherwise the t
// side. Predecessors are read from the opposite view of the one the side was
// grown along (see Sampler).
//
//bc:hotpath
func (sp *Sampler) walk(x, target graph.Node, toS bool) {
	var g *graph.Graph
	var stamp, dist []uint32
	var sig []float64
	if toS {
		g, stamp, dist, sig = sp.bwd, sp.stampS, sp.distS, sp.sigS
	} else {
		g, stamp, dist, sig = sp.fwd, sp.stampT, sp.distT, sp.sigT
	}
	cur := sp.cur
	v := x
	for dist[v] > 0 {
		dv := dist[v]
		// Choose a predecessor u (dist[u] == dv-1) with probability
		// sigma[u]/sigma[v]. sigma[v] equals the sum over predecessors.
		pick := sp.rng.Float64() * sig[v]
		var chosen graph.Node
		found := false
		for _, u := range g.Neighbors(v) {
			if stamp[u] == cur && dist[u] == dv-1 {
				if pick < sig[u] {
					chosen = u
					found = true
					break
				}
				pick -= sig[u]
			}
		}
		if !found {
			// Floating-point slack: fall back to the last valid predecessor.
			for _, u := range g.Neighbors(v) {
				if stamp[u] == cur && dist[u] == dv-1 {
					chosen = u
					found = true
				}
			}
			if !found {
				panic("bfs: corrupt sigma counts during path walk")
			}
		}
		v = chosen
		if dist[v] > 0 {
			sp.path = append(sp.path, v)
		}
	}
	if v != target {
		panic("bfs: path walk did not reach endpoint")
	}
}

// Distance returns the shortest-path distance between s and t computed with
// the same bidirectional machinery, or Unreached if disconnected. Intended
// for tests and tools; sampling code uses SamplePath directly.
func (sp *Sampler) Distance(s, t graph.Node) uint32 {
	if s == t {
		return 0
	}
	internal, ok := sp.SamplePath(s, t)
	if !ok {
		return Unreached
	}
	return uint32(len(internal)) + 1
}

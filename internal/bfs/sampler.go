package bfs

import (
	"slices"

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
// Most samples on a low-diameter graph end with two small frontiers next to
// each other, one of them holding a hub, and expanding that round would
// stamp thousands of vertices only to keep the few that meet. So before a
// round expands, when |frontS| * |frontT| * probeCost is below the cheaper
// side's frontier cost, the round probes instead: it finds each expanding
// vertex's arcs into the other frontier (a scan of a short list, a binary
// search per frontier pair otherwise) and stamps only those. Every meeting
// vertex lies in the other frontier, so a probe with hits has found the
// whole meeting set; one without hits wrote nothing, and the round expands.
// After a probe, the walk's first step on the probed side reads its
// candidates off the frontier when that is cheaper than scanning the meeting
// vertex's arcs, and at distance 1 the predecessor is the endpoint itself.
//
// The output is sample-for-sample identical to expanding every round. Sorted
// adjacency lists make the probe discover meeting vertices in expand's
// order with the same sigma sums, the walk sees its candidates in ascending
// order either way, and it draws the same random numbers. This makes sorted,
// duplicate-free neighbour lists (graph.Graph's invariant) load-bearing: on
// unsorted lists a binary search can miss an arc, so the walk falls back to
// scanning whenever the frontier yields no candidate. Every path is then
// still a shortest path, but the path distribution may differ.
//
// On an undirected graph of high diameter the two balls have radius about
// d(s,t)/2 and hold several times the s-t shortest-path DAG, so
// kadabra.UndirectedWorkload samples such graphs with GoalSampler instead:
// when a double sweep from the max-degree vertex bounds the diameter above
// 2·⌈log2 n⌉ (balls grow polynomially, as on a lattice, not exponentially,
// as on a small world), it builds NumLandmarks = 4 landmarks once and every
// sampler is the goal kernel. Below the threshold, and on digraphs, this
// kernel runs. Per-thread memory is 32 bytes per vertex (stamp, distance
// and path count per side).
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
	hits           []graph.Node // probe and preds scratch
}

// probeCost prices one frontier pair of a probe in scanned arcs: a binary
// search and its cache misses.
const probeCost = 8

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
		hits:   make([]graph.Node, 0, 64),
	}
}

// SamplePair picks a uniform random pair (s, t), s != t.
//
//bc:hotpath
func (sp *Sampler) SamplePair() (s, t graph.Node) {
	return samplePair(sp.rng, sp.fwd.NumNodes())
}

// samplePair draws a uniform ordered pair of distinct vertices out of n.
//
//bc:hotpath
func samplePair(r *rng.Rand, n int) (s, t graph.Node) {
	s = graph.Node(r.Intn(n))
	t = graph.Node(r.Intn(n - 1))
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

	// Expand the cheaper side until the balls meet or a side dies; probe for
	// the meeting first when the frontier pairs are cheaper than expanding.
	costS, costT := frontierCost(sp.fwd, sp.frontS), frontierCost(sp.bwd, sp.frontT)
	probed := false
	var expandS bool
	for {
		expandS = costS <= costT
		pairs := uint64(len(sp.frontS)) * uint64(len(sp.frontT))
		if pairs*probeCost < min(costS, costT) && sp.probe(expandS) {
			probed = true
			break
		}
		if sp.expand(expandS) {
			break
		}
		if expandS {
			if len(sp.frontS) == 0 {
				return nil, false // ball exhausted: t is unreachable from s
			}
			costS = frontierCost(sp.fwd, sp.frontS)
		} else {
			if len(sp.frontT) == 0 {
				return nil, false
			}
			costT = frontierCost(sp.bwd, sp.frontT)
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
	sp.walk(x, s, true, probed && expandS)
	// reverse the s-side prefix so the path reads s..t (order irrelevant for
	// counting, but useful for tests that validate the path).
	for i, j := 0, len(sp.path)-1; i < j; i, j = i+1, j-1 {
		sp.path[i], sp.path[j] = sp.path[j], sp.path[i]
	}
	if x != s && x != t {
		sp.path = append(sp.path, x)
	}
	sp.walk(x, t, false, probed && !expandS)
	return sp.path, true
}

// probe is expand restricted to the meeting vertices: for each vertex u of
// the expanding frontier, in frontier order, it finds u's arcs into the
// other frontier and stamps, counts and collects their far ends exactly as
// expand would. It returns true when it found the meeting set; otherwise it
// has written nothing. A vertex of the other ball adjacent to the expanding
// frontier always sits in the other frontier (else the balls would already
// have met), so a scan of u's list can test the other stamp.
//
//bc:hotpath
func (sp *Sampler) probe(sSide bool) bool {
	g, gt := sp.fwd, sp.bwd
	front, other := sp.frontS, sp.frontT
	stamp, otherStamp, dist, sig := sp.stampS, sp.stampT, sp.distS, sp.sigS
	if !sSide {
		g, gt = sp.bwd, sp.fwd
		front, other = sp.frontT, sp.frontS
		stamp, otherStamp, dist, sig = sp.stampT, sp.stampS, sp.distT, sp.sigT
	}
	cur := sp.cur
	sp.meet = sp.meet[:0]
	for _, u := range front {
		hits := sp.hits[:0]
		if adj := g.Neighbors(u); len(adj) <= len(other)*probeCost {
			for _, w := range adj {
				if otherStamp[w] == cur {
					hits = append(hits, w)
				}
			}
		} else {
			for _, w := range other {
				if arc(g, gt, u, w) {
					hits = append(hits, w)
				}
			}
			slices.Sort(hits) // expand meets them in adjacency order
		}
		sp.hits = hits
		du, su := dist[u], sig[u]
		for _, w := range hits {
			if stamp[w] != cur {
				stamp[w], dist[w], sig[w] = cur, du+1, su
				sp.meet = append(sp.meet, w)
			} else {
				sig[w] += su
			}
		}
	}
	return len(sp.meet) > 0
}

// preds returns the vertices of front with an arc into x along g (gt is its
// transpose), ascending: the order a scan of x's sorted list meets them.
//
//bc:hotpath
func (sp *Sampler) preds(g, gt *graph.Graph, front []graph.Node, x graph.Node) []graph.Node {
	hits := sp.hits[:0]
	for _, u := range front {
		if arc(g, gt, u, x) {
			hits = append(hits, u)
		}
	}
	slices.Sort(hits)
	sp.hits = hits
	return hits
}

// arc reports whether u->w is an arc of g, whose transpose is gt, by binary
// search in the shorter of u's list in g and w's list in gt.
//
//bc:hotpath
func arc(g, gt *graph.Graph, u, w graph.Node) bool {
	adj, key := g.Neighbors(u), w
	if in := gt.Neighbors(w); len(in) < len(adj) {
		adj, key = in, u
	}
	_, ok := slices.BinarySearch(adj, key)
	return ok
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
// grown along (see Sampler). When probed, this side's meeting round was a
// probe and its frontier still holds x's predecessors.
//
//bc:hotpath
func (sp *Sampler) walk(x, target graph.Node, toS, probed bool) {
	g, gt := sp.bwd, sp.fwd
	stamp, dist, sig, front := sp.stampS, sp.distS, sp.sigS, sp.frontS
	if !toS {
		g, gt = sp.fwd, sp.bwd
		stamp, dist, sig, front = sp.stampT, sp.distT, sp.sigT, sp.frontT
	}
	cur := sp.cur
	v := x
	for dist[v] > 0 {
		dv := dist[v]
		if dv == 1 {
			// The one vertex at distance 0 is the endpoint; the scan would
			// pick it whatever it drew, so draw and skip the scan.
			sp.rng.Float64()
			v = target
			break
		}
		// Choose a predecessor u (dist[u] == dv-1) with probability
		// sigma[u]/sigma[v]. sigma[v] equals the sum over predecessors.
		pick := sp.rng.Float64() * sig[v]
		cands := g.Neighbors(v)
		if probed && len(front)*probeCost < len(cands) {
			if p := sp.preds(gt, g, front, v); len(p) > 0 {
				cands = p
			}
		}
		probed = false
		var chosen graph.Node
		found := false
		for _, u := range cands {
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
			for _, u := range cands {
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

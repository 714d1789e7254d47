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
// round expands, when it would scan at least meetGate arcs per vertex of the
// other frontier, the round probes instead: it marks the other frontier in a
// per-sampler set of n bits, finds each expanding vertex's arcs into the
// marked vertices (a scan of its list against the marks, or an arc test per
// marked vertex when the list is longer than 2·probeCost arcs per marked
// vertex) and stamps only those. An arc test between two of the graph's
// highest-degree vertices reads one bit of the shared Hubs matrix; any other
// is a binary search. Every meeting vertex lies in the other frontier, so a
// probe with hits has found the whole meeting set; one without hits wrote
// nothing but the marks, which it clears in O(|other frontier|), and the
// round expands. This is the bottom-up step of direction-optimizing BFS
// (Beamer, Asanović & Patterson, SC 2012), which also tests frontier
// membership on a bitmap, not on per-vertex state.
//
// Each side builds its next level in a spare buffer of its own, which then
// holds the side's previous level. So when the balls meet, each side still
// has the level below the meeting vertex x: its previous level, or its
// frontier on the side whose probe found the meeting. The walk's first step
// on either side reads x's predecessors off that level when |level| *
// probeCost is below x's degree, instead of scanning x's list, typically a
// hub's; at distance 1 the predecessor is the endpoint itself.
//
// The output is sample-for-sample identical to expanding every round. Sorted
// adjacency lists make the probe discover meeting vertices in expand's
// order with the same sigma sums, the walk sees its candidates in ascending
// order either way, and it draws the same random numbers. This makes sorted,
// duplicate-free neighbour lists (graph.Graph's invariant) load-bearing: on
// unsorted lists a binary search can miss an arc (the matrix cannot), so the
// walk falls back to scanning whenever the frontier yields no candidate.
// Every path is then still a shortest path, but the path distribution may
// differ.
//
// On an undirected graph of high diameter the two balls have radius about
// d(s,t)/2 and hold several times the s-t shortest-path DAG, so
// kadabra.UndirectedWorkload samples such graphs with GoalSampler instead:
// when a double sweep from the max-degree vertex bounds the diameter above
// 2·⌈log2 n⌉ (balls grow polynomially, as on a lattice, not exponentially,
// as on a small world), it builds NumLandmarks = 4 landmarks once and every
// sampler is the goal kernel. Below the threshold, and on digraphs, this
// kernel runs. Per-thread memory is 32n + n/8 bytes: one 32-byte record
// per vertex holds both balls' stamp, distance and path count, so expand,
// probe and walk touch half a cache line per vertex, and the mark is one bit
// per vertex. Four frontier buffers grow to the search's size. The Hubs
// matrix, 4n + K²/8 bytes, is built once per graph and shared.
//
// A Sampler is not safe for concurrent use; each sampling thread owns one.
// The backing graph and its Hubs are shared and read-only.
type Sampler struct {
	fwd, bwd *graph.Graph
	hubs     *Hubs
	rng      *rng.Rand

	// Per-vertex BFS state of both balls, s at index 0 and t at 1, validity
	// gated by stamp to avoid O(|V|) clears.
	vs  [][2]half
	cur uint32

	// Each side's frontier and the buffer its next level is built in,
	// which after a round holds the side's previous level.
	frontS, frontT []graph.Node
	spareS, spareT []graph.Node
	mark           []uint64 // one bit per vertex, set on the other frontier by probe
	meet           []graph.Node
	path           []graph.Node
	hits           []graph.Node // probe and preds scratch
}

// half is one ball's state at a vertex, valid while stamp is the sampler's
// current stamp.
type half struct {
	stamp, dist uint32
	sig         float64
}

// probeCost prices one frontier pair of a probe in scanned arcs: a binary
// search and its cache misses.
const probeCost = 8

// meetGate is the arcs a round must scan per vertex of the other frontier
// before it probes: below it, marking the other frontier and clearing it
// again cost too large a share of a round that may not meet.
const meetGate = 8

// NewSampler creates a sampler over the undirected graph g, whose hub matrix
// h (NewHubs(g)) it shares, using the given private RNG.
func NewSampler(g *graph.Graph, h *Hubs, r *rng.Rand) *Sampler {
	return newSampler(g, g, h, r)
}

// NewDirectedSampler creates a sampler over the digraph g, whose hub matrix
// h (NewDirectedHubs(g)) it shares: shortest s->t paths follow arc
// directions.
func NewDirectedSampler(g *graph.Digraph, h *Hubs, r *rng.Rand) *Sampler {
	return newSampler(
		&graph.Graph{Offsets: g.OutOffsets, Adj: g.OutAdj},
		&graph.Graph{Offsets: g.InOffsets, Adj: g.InAdj}, h, r)
}

func newSampler(fwd, bwd *graph.Graph, h *Hubs, r *rng.Rand) *Sampler {
	n := fwd.NumNodes()
	if len(h.row) != n {
		panic("bfs: hub matrix built for another graph")
	}
	return &Sampler{
		fwd:    fwd,
		bwd:    bwd,
		hubs:   h,
		rng:    r,
		vs:     make([][2]half, n),
		frontS: make([]graph.Node, 0, 256),
		frontT: make([]graph.Node, 0, 256),
		spareS: make([]graph.Node, 0, 256),
		spareT: make([]graph.Node, 0, 256),
		mark:   make([]uint64, (n+63)/64),
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
		for i := range sp.vs {
			sp.vs[i][0].stamp, sp.vs[i][1].stamp = 0, 0
		}
		sp.cur = 1
	}
	cur := sp.cur
	sp.vs[s][0] = half{stamp: cur, sig: 1}
	sp.vs[t][1] = half{stamp: cur, sig: 1}
	sp.frontS = append(sp.frontS[:0], s)
	sp.frontT = append(sp.frontT[:0], t)
	sp.spareS, sp.spareT = sp.spareS[:0], sp.spareT[:0]
	if sp.fwd.Degree(s) == 0 || sp.bwd.Degree(t) == 0 {
		return nil, false
	}

	// Expand the cheaper side until the balls meet or a side dies; probe
	// for the meeting first when the round scans enough arcs per vertex of
	// the other frontier.
	costS, costT := frontierCost(sp.fwd, sp.frontS), frontierCost(sp.bwd, sp.frontT)
	met := false // a probe found the meeting set
	var expandS bool
	for {
		expandS = costS <= costT
		cost, other := costS, len(sp.frontT)
		if !expandS {
			cost, other = costT, len(sp.frontS)
		}
		if cost >= uint64(other)*meetGate {
			met = sp.probe(expandS)
		}
		if met || sp.expand(expandS) {
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

	// sp.meet holds the meeting vertices x whose two distances sum to D.
	// Total path count and weighted meeting-vertex selection.
	total := 0.0
	for _, x := range sp.meet {
		total += sp.vs[x][0].sig * sp.vs[x][1].sig
	}
	pick := sp.rng.Float64() * total
	x := sp.meet[len(sp.meet)-1]
	for _, cand := range sp.meet {
		w := sp.vs[cand][0].sig * sp.vs[cand][1].sig
		if pick < w {
			x = cand
			break
		}
		pick -= w
	}

	// Walk from x back to s and forward to t, sampling predecessors
	// proportionally to their path counts; collect internal vertices. The
	// level below x on each side is that side's previous frontier, or, on
	// the side whose probe found the meeting, its frontier.
	lowS, lowT := sp.spareS, sp.spareT
	if met && expandS {
		lowS = sp.frontS
	} else if met {
		lowT = sp.frontT
	}
	sp.path = sp.path[:0]
	sp.walk(x, s, true, lowS)
	// reverse the s-side prefix so the path reads s..t (order irrelevant for
	// counting, but useful for tests that validate the path).
	for i, j := 0, len(sp.path)-1; i < j; i, j = i+1, j-1 {
		sp.path[i], sp.path[j] = sp.path[j], sp.path[i]
	}
	if x != s && x != t {
		sp.path = append(sp.path, x)
	}
	sp.walk(x, t, false, lowT)
	return sp.path, true
}

// probe is expand restricted to the meeting vertices: it marks the other
// frontier in sp.mark, then for each vertex u of the expanding frontier, in
// frontier order, finds u's arcs into the marked vertices and stamps, counts
// and collects their far ends exactly as expand would. A vertex of the other
// ball adjacent to the expanding frontier always sits in the other frontier
// (else the balls would already have met), so the marked far ends are the
// ones expand would find met. u's arcs are a scan of its list against the
// mark, or, when the list is longer than 2·probeCost arcs per marked vertex,
// an arc test per marked vertex. It returns true when it found the meeting
// set; otherwise it has written nothing. Either way it clears the marks in
// O(|other frontier|).
//
//bc:hotpath
func (sp *Sampler) probe(sSide bool) bool {
	g, gt, me := sp.fwd, sp.bwd, 0
	front, other := sp.frontS, sp.frontT
	if !sSide {
		g, gt, me = sp.bwd, sp.fwd, 1
		front, other = sp.frontT, sp.frontS
	}
	mark, vs, cur := sp.mark, sp.vs, sp.cur
	for _, v := range other {
		mark[v/64] |= 1 << (v % 64)
	}
	sp.meet = sp.meet[:0]
	for _, u := range front {
		hits := sp.hits[:0]
		// An arc test costs probeCost arcs of a scan that tests stamps,
		// and about twice as many of one that tests marks.
		if adj := g.Neighbors(u); len(adj) <= 2*len(other)*probeCost {
			for _, w := range adj {
				if mark[w/64]&(1<<(w%64)) != 0 {
					hits = append(hits, w)
				}
			}
		} else {
			for _, w := range other {
				if sp.hubs.arc(g, gt, !sSide, u, w) {
					hits = append(hits, w)
				}
			}
			slices.Sort(hits) // expand meets them in adjacency order
		}
		sp.hits = hits
		du, su := vs[u][me].dist, vs[u][me].sig
		for _, w := range hits {
			if h := &vs[w][me]; h.stamp != cur {
				*h = half{stamp: cur, dist: du + 1, sig: su}
				sp.meet = append(sp.meet, w)
			} else {
				h.sig += su
			}
		}
	}
	for _, v := range other {
		mark[v/64] = 0
	}
	return len(sp.meet) > 0
}

// preds returns the vertices of front with an arc into x along g (gt is its
// transpose, back says g is the bwd view), ascending: the order a scan of x's
// sorted list meets them.
//
//bc:hotpath
func (sp *Sampler) preds(g, gt *graph.Graph, back bool, front []graph.Node, x graph.Node) []graph.Node {
	hits := sp.hits[:0]
	for _, u := range front {
		if sp.hubs.arc(g, gt, back, u, x) {
			hits = append(hits, u)
		}
	}
	slices.Sort(hits)
	sp.hits = hits
	return hits
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
	g, front, spare, me := sp.fwd, &sp.frontS, &sp.spareS, 0
	if !sSide {
		g, front, spare, me = sp.bwd, &sp.frontT, &sp.spareT, 1
	}
	vs, you, cur := sp.vs, me^1, sp.cur
	next := (*spare)[:0]
	sp.meet = sp.meet[:0]
	bestMeet := Unreached
	for _, u := range *front {
		du, su := vs[u][me].dist, vs[u][me].sig
		for _, w := range g.Neighbors(u) {
			r := &vs[w]
			if r[me].stamp != cur {
				r[me] = half{stamp: cur, dist: du + 1, sig: su}
				next = append(next, w)
				if r[you].stamp == cur {
					d := du + 1 + r[you].dist
					if d < bestMeet {
						bestMeet = d
						sp.meet = sp.meet[:0]
					}
					if d == bestMeet {
						sp.meet = append(sp.meet, w)
					}
				}
			} else if r[me].dist == du+1 {
				r[me].sig += su
			}
		}
	}
	*spare = *front
	*front = next
	return len(sp.meet) > 0
}

// walk samples a shortest path from x toward target (distance 0 end) on one
// side, appending internal vertices to sp.path. When toS is true it walks the
// s side (appending before x conceptually; caller reverses), otherwise the t
// side. Predecessors are read from the opposite view of the one the side was
// grown along (see Sampler). low is this side's level below x, which holds
// x's predecessors: the first step reads them off it when that is cheaper
// than scanning x's arcs.
//
//bc:hotpath
func (sp *Sampler) walk(x, target graph.Node, toS bool, low []graph.Node) {
	g, gt, me := sp.bwd, sp.fwd, 0
	if !toS {
		g, gt, me = sp.fwd, sp.bwd, 1
	}
	vs, cur := sp.vs, sp.cur
	v := x
	for vs[v][me].dist > 0 {
		dv := vs[v][me].dist
		if dv == 1 {
			// The one vertex at distance 0 is the endpoint; the scan would
			// pick it whatever it drew, so draw and skip the scan.
			sp.rng.Float64()
			v = target
			break
		}
		// Choose a predecessor u (dist[u] == dv-1) with probability
		// sigma[u]/sigma[v]. sigma[v] equals the sum over predecessors.
		pick := sp.rng.Float64() * vs[v][me].sig
		cands := g.Neighbors(v)
		if len(low)*probeCost < len(cands) {
			if p := sp.preds(gt, g, !toS, low, v); len(p) > 0 {
				cands = p
			}
		}
		low = nil
		var chosen graph.Node
		found := false
		for _, u := range cands {
			if h := &vs[u][me]; h.stamp == cur && h.dist == dv-1 {
				if pick < h.sig {
					chosen = u
					found = true
					break
				}
				pick -= h.sig
			}
		}
		if !found {
			// Floating-point slack: fall back to the last valid predecessor.
			for _, u := range cands {
				if h := &vs[u][me]; h.stamp == cur && h.dist == dv-1 {
					chosen = u
					found = true
				}
			}
			if !found {
				panic("bfs: corrupt sigma counts during path walk")
			}
		}
		v = chosen
		if vs[v][me].dist > 0 {
			sp.path = append(sp.path, v)
		}
	}
	if v != target {
		panic("bfs: path walk did not reach endpoint")
	}
}

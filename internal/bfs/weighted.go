package bfs

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/rng"
)

// ArcsByWeight is the weight-ordered view of a graph.WGraph the weighted
// kernel reads: vertex v's arcs are packed as weight<<32 | neighbour and
// sorted ascending, that is by (weight, neighbour ID), whatever order the
// graph stores them in. It shares the graph's Offsets, so it costs 8 bytes
// per arc. Build it once per graph; it is read-only, and every sampler over
// the graph shares it.
type ArcsByWeight struct {
	offsets []uint64
	arcs    []uint64
}

// SortArcsByWeight builds g's weight-ordered view.
func SortArcsByWeight(g *graph.WGraph) *ArcsByWeight {
	a := &ArcsByWeight{offsets: g.Offsets, arcs: make([]uint64, len(g.Adj))}
	for i, v := range g.Adj {
		a.arcs[i] = uint64(g.W[i])<<32 | uint64(v)
	}
	for v := range g.NumNodes() {
		slices.Sort(a.arcs[g.Offsets[v]:g.Offsets[v+1]])
	}
	return a
}

// NumNodes returns |V|.
func (a *ArcsByWeight) NumNodes() int { return len(a.offsets) - 1 }

// Degree returns the number of neighbours of v.
func (a *ArcsByWeight) Degree(v graph.Node) int { return int(a.offsets[v+1] - a.offsets[v]) }

// of returns v's packed arcs, lightest first.
func (a *ArcsByWeight) of(v graph.Node) []uint64 { return a.arcs[a.offsets[v]:a.offsets[v+1]] }

// MinWeight returns the lightest arc weight of the graph (0 without arcs).
func (a *ArcsByWeight) MinWeight() uint64 {
	lightest := uint64(0)
	for v := range a.NumNodes() {
		if arcs := a.of(graph.Node(v)); len(arcs) > 0 && (lightest == 0 || arcs[0]>>32 < lightest) {
			lightest = arcs[0] >> 32
		}
	}
	return lightest
}

// Eccentricity runs a Dijkstra from source and returns its two largest
// finite distances to distinct vertices, ecc >= second (second is 0 when
// source reaches nothing else), and the farthest vertex (the lowest ID
// among ties). It is the weighted counterpart of BFS.Eccentricity, for the
// vertex-diameter bound: any two vertices u != w are at most
// d(u,source) + d(source,w) <= ecc + second apart.
func (a *ArcsByWeight) Eccentricity(source graph.Node) (ecc, second uint64, farthest graph.Node) {
	const unreached = math.MaxUint64
	dist := make([]uint64, a.NumNodes())
	for i := range dist {
		dist[i] = unreached
	}
	var q pq.Monotone
	dist[source] = 0
	q.Push(uint32(source), 0)
	for q.Len() > 0 {
		x, d := q.Pop()
		if d != dist[x] {
			continue // stale entry
		}
		for _, arc := range a.of(graph.Node(x)) {
			if y, nd := uint32(arc), d+arc>>32; nd < dist[y] {
				dist[y] = nd
				q.Push(y, nd)
			}
		}
	}
	farthest = source
	for v, d := range dist {
		switch {
		case d == unreached || graph.Node(v) == source:
		case d > ecc:
			ecc, second, farthest = d, ecc, graph.Node(v)
		case d > second:
			second = d
		}
	}
	return ecc, second, farthest
}

// WeightedSampler draws uniform random shortest paths in a positively
// weighted undirected graph — the weighted variant of the sampling kernel
// the paper's footnote 1 alludes to — by a balanced bidirectional Dijkstra
// with exact integer distances and path counting.
//
// Two balls grow from s and t, the side that has scanned fewer arcs going
// next. mu is the lightest connection d_f(u)+w+d_b(v) seen over a relaxed
// arc whose far end carries the other side's label. The search stops when
// the queue heads satisfy head_f + head_b > mu (strictly: with >= a vertex
// at both radii would be settled by neither side) or a queue drains, and mu
// is then the distance. Forward distance rises strictly from 0 to mu along
// a shortest path, so with theta = min(head_f, mu) each shortest path has
// exactly one crossing arc (u,v), d_f(u) < theta <= d_f(u)+w, whose ends
// are settled forward and backward: sigma(s,t) is the sum of
// sigma_f(u)*sigma_b(v) over crossing arcs. Drawing a crossing arc in
// proportion to its product, then walking u->s and v->t by the
// sigma-proportional predecessor rule, gives every path the same chance.
//
// Arcs are read from an ArcsByWeight view, lightest first, and settling u
// stops at the first arc with d(u)+w > mu. That cut drops only arcs that
// would do nothing: such an arc can neither lower mu, nor be a crossing arc
// (those attain mu), nor queue its far end (that needs d(u)+w < mu); and as
// mu never rises, every later, heavier arc is past it too. An arc with
// d(u)+w == mu is still scanned: it is how the arc into the other root,
// whose label is 0, attains mu and is recorded as a crossing arc.
//
// Of the arcs below the cut, most end at a vertex v the other side has not
// settled while d(u)+w plus the other head's key exceeds mu. Such an arc is
// skipped on one bit of the other side's settled set, without reading v's
// labels: it cannot queue v (that needs v's remaining distance, at least
// the other head's key, within mu), and it cannot lower mu, since any
// tentative label the other side holds is at least its head's key. The
// skipped arcs still count as scanned work, so which side goes next, and
// hence every sample, is as if each arc were read in full.
//
// Total path weights must stay below 2^63. A WeightedSampler is not safe
// for concurrent use; each sampling thread owns one. The view is shared and
// read-only.
type WeightedSampler struct {
	arcs *ArcsByWeight
	rng  *rng.Rand

	fwd, bwd wside
	cur      uint32
	mu       uint64

	// cross holds every arc (u,v) relaxed so far with both ends settled
	// (u forward, v backward) and d_f(u)+w+d_b(v) == mu.
	cross []crossArc
	path  []graph.Node
}

// wlabel is one side's per-vertex search state, valid when stamp matches
// the sampler's current round; dist and sig are final once the side's
// settled bit of the vertex is set.
type wlabel struct {
	dist  uint64
	sig   float64
	stamp uint32
}

// wside is one Dijkstra ball. Its head is the live queue entry of minimum
// key, already popped but not yet settled: every vertex nearer than headKey
// is settled, unless settle's pruning showed it to lie on no shortest s-t
// path.
type wside struct {
	lab     []wlabel
	q       pq.Monotone
	head    graph.Node
	headKey uint64 // wInf once the queue has drained
	work    uint64 // arcs scanned this round
	// settled has bit v set iff the side settled v this round; order lists
	// those vertices, so that start clears only their words.
	settled []uint64
	order   []graph.Node
}

// isSettled reports whether the side settled v this round.
//
//bc:hotpath
func (sd *wside) isSettled(v graph.Node) bool { return sd.settled[v>>6]&(1<<(v&63)) != 0 }

type crossArc struct{ u, v graph.Node }

const wInf = math.MaxUint64

// NewWeightedSampler creates a sampler over the view arcs with a private RNG.
func NewWeightedSampler(arcs *ArcsByWeight, r *rng.Rand) *WeightedSampler {
	n := arcs.NumNodes()
	ws := &WeightedSampler{
		arcs:  arcs,
		rng:   r,
		cross: make([]crossArc, 0, 256),
		path:  make([]graph.Node, 0, 64),
	}
	for _, sd := range []*wside{&ws.fwd, &ws.bwd} {
		sd.lab = make([]wlabel, n)
		sd.settled = make([]uint64, (n+63)/64)
		// A search rarely queues or settles more than n entries a side;
		// up to 4096, reserve them now rather than regrow on the rare
		// large search.
		sd.q.Grow(min(n, 4096))
		sd.order = make([]graph.Node, 0, min(n, 4096))
	}
	return ws
}

// Sample draws one sample with a uniform random pair.
//
//bc:hotpath
func (ws *WeightedSampler) Sample() (internal []graph.Node, ok bool) {
	n := ws.arcs.NumNodes()
	s := graph.Node(ws.rng.Intn(n))
	t := graph.Node(ws.rng.Intn(n - 1))
	if t >= s {
		t++
	}
	return ws.SamplePath(s, t)
}

// SamplePath draws a uniform random minimum-weight s-t path and returns its
// internal vertices; ok=false if s and t are disconnected.
//
//bc:hotpath
func (ws *WeightedSampler) SamplePath(s, t graph.Node) (internal []graph.Node, ok bool) {
	if s == t || !ws.search(s, t) {
		return nil, false
	}
	pick := ws.rng.Float64() * ws.crossing()
	arc := ws.cross[len(ws.cross)-1]
	for _, a := range ws.cross {
		p := ws.through(a)
		if pick < p {
			arc = a
			break
		}
		pick -= p
	}

	ws.path = ws.path[:0]
	ws.walk(&ws.fwd, arc.u) // u back to s, excluding s
	for i, j := 0, len(ws.path)-1; i < j; i, j = i+1, j-1 {
		ws.path[i], ws.path[j] = ws.path[j], ws.path[i]
	}
	ws.walk(&ws.bwd, arc.v) // v on to t, excluding t
	return ws.path, true
}

// through returns the number of shortest paths over crossing arc a.
//
//bc:hotpath
func (ws *WeightedSampler) through(a crossArc) float64 {
	return ws.fwd.lab[a.u].sig * ws.bwd.lab[a.v].sig
}

// crossing narrows ws.cross to the crossing arcs, one per shortest path up
// to the choice of its two halves, and returns the number of shortest paths.
//
//bc:hotpath
func (ws *WeightedSampler) crossing() float64 {
	fwd, bwd := &ws.fwd, &ws.bwd
	theta := ws.mu
	if fwd.headKey < theta {
		theta = fwd.headKey
	}
	total := 0.0
	k := 0
	for _, a := range ws.cross {
		// d_f(u)+w is mu-d_b(v) on every recorded arc.
		if fwd.lab[a.u].dist < theta && ws.mu-bwd.lab[a.v].dist >= theta {
			ws.cross[k] = a
			k++
			total += ws.through(a)
		}
	}
	if k == 0 {
		panic("bfs: no crossing arc in weighted search")
	}
	ws.cross = ws.cross[:k]
	return total
}

// search grows the two balls until mu is the s-t distance and ws.cross
// holds every crossing arc; it reports false if s and t are disconnected.
//
//bc:hotpath
func (ws *WeightedSampler) search(s, t graph.Node) bool {
	fwd, bwd := &ws.fwd, &ws.bwd
	ws.cur++
	if ws.cur == 0 { // stamp wrapped: invalidate both sides once
		for i := range fwd.lab {
			fwd.lab[i].stamp = 0
			bwd.lab[i].stamp = 0
		}
		ws.cur = 1
	}
	ws.mu = wInf
	ws.cross = ws.cross[:0]
	fwd.start(s, ws.cur)
	bwd.start(t, ws.cur)
	// Both roots carry their labels before either is settled, so an arc
	// into the other root already sees it; settling both first keeps every
	// head key, and hence theta, positive.
	ws.settle(fwd, bwd, true)
	ws.settle(bwd, fwd, false)

	for fwd.headKey != wInf && bwd.headKey != wInf &&
		(ws.mu == wInf || fwd.headKey+bwd.headKey <= ws.mu) {
		if fwd.work <= bwd.work {
			ws.settle(fwd, bwd, true)
		} else {
			ws.settle(bwd, fwd, false)
		}
	}
	return ws.mu != wInf
}

// start resets the side for a round rooted at root and makes root its head.
//
//bc:hotpath
func (sd *wside) start(root graph.Node, cur uint32) {
	for _, v := range sd.order {
		sd.settled[v>>6] = 0
	}
	sd.order = sd.order[:0]
	sd.q.Reset()
	sd.lab[root] = wlabel{dist: 0, sig: 1, stamp: cur}
	sd.head, sd.headKey = root, 0
	sd.work = 0
}

// settle makes sd's head final, relaxes its arcs up to the first one past mu
// and advances the head. An arc whose far end v the other side has not
// settled, and whose nd plus the other head's key exceeds mu, is skipped
// unread: the checks below would come to nothing on it (see
// WeightedSampler). The test is written as headKey > mu-nd, which cannot
// overflow because nd <= mu; a drained other side has headKey wInf and every
// one of its labelled vertices settled. Any other arc first offers
// d(head)+w+d_other(v) to mu if v carries the other side's label — a
// tentative label is still the weight of a real path — and is recorded as a
// crossing candidate when it attains mu and v is settled there: of an arc's
// two relaxations only the later one sees the far end settled, so no arc is
// recorded twice. A label is queued only if v can still lie on a shortest
// s-t path: nd must stay below mu, and nd plus v's remaining distance —
// exact if the other side settled v, else at least the other head's key —
// within it. The vertices this drops are on no shortest path, so neither are
// their successors through them, and every count the crossing arcs use is
// unaffected.
//
//bc:hotpath
func (ws *WeightedSampler) settle(sd, other *wside, forward bool) {
	cur := ws.cur
	u := sd.head
	sd.settled[u>>6] |= 1 << (u & 63)
	sd.order = append(sd.order, u)
	du, su := sd.lab[u].dist, sd.lab[u].sig
	arcs := ws.arcs.of(u)
	i := 0
	for ; i < len(arcs); i++ {
		nd := du + arcs[i]>>32
		if nd > ws.mu {
			break // arcs are lightest first and mu only falls: the rest are past it too
		}
		v := graph.Node(uint32(arcs[i]))
		vDone := other.isSettled(v)
		if !vDone && other.headKey > ws.mu-nd {
			continue
		}
		rest := other.headKey // lower bound on v's distance to the other root
		if ov := &other.lab[v]; ov.stamp == cur {
			if cand := nd + ov.dist; cand <= ws.mu {
				if cand < ws.mu {
					ws.mu = cand
					ws.cross = ws.cross[:0]
				}
				if vDone {
					if forward {
						ws.cross = append(ws.cross, crossArc{u, v})
					} else {
						ws.cross = append(ws.cross, crossArc{v, u})
					}
				}
			}
			if vDone {
				rest = ov.dist
			}
		}
		if nd >= ws.mu || rest > ws.mu-nd {
			continue
		}
		lv := &sd.lab[v]
		switch {
		case lv.stamp != cur:
			*lv = wlabel{dist: nd, sig: su, stamp: cur}
			sd.q.Push(uint32(v), nd)
		case nd < lv.dist:
			lv.dist, lv.sig = nd, su
			sd.q.Push(uint32(v), nd) // the old entry goes stale
		case nd == lv.dist:
			lv.sig += su
		}
	}
	sd.work += uint64(i)

	// Next head: an entry is live iff its key is still its item's label
	// (labels only decrease, and each (item, key) is queued once).
	for sd.q.Len() > 0 {
		item, key := sd.q.Pop()
		if sd.lab[item].dist == key {
			sd.head, sd.headKey = graph.Node(item), key
			return
		}
	}
	sd.headKey = wInf
}

// walk appends x and then its sigma-proportional predecessors on sd's side
// up to, but excluding, the root. Every vertex it visits is nearer than a
// settled vertex, hence settled.
//
//bc:hotpath
func (ws *WeightedSampler) walk(sd *wside, x graph.Node) {
	cur := ws.cur
	for sd.lab[x].dist > 0 {
		ws.path = append(ws.path, x)
		dx := sd.lab[x].dist
		pick := ws.rng.Float64() * sd.lab[x].sig
		var chosen graph.Node
		found := false
		for _, a := range ws.arcs.of(x) {
			y := graph.Node(uint32(a))
			if ly := &sd.lab[y]; ly.stamp == cur && ly.dist+a>>32 == dx {
				chosen, found = y, true // rounding may exhaust pick: keep the last
				if pick < ly.sig {
					break
				}
				pick -= ly.sig
			}
		}
		if !found {
			panic("bfs: corrupt sigma counts in weighted walk")
		}
		x = chosen
	}
}

// Distance returns the minimum path weight between s and t, or MaxUint64 if
// disconnected. For tests and tools.
func (ws *WeightedSampler) Distance(s, t graph.Node) uint64 {
	if s == t {
		return 0
	}
	ws.search(s, t)
	return ws.mu
}

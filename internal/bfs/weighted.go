package bfs

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/rng"
)

// WeightedSampler draws uniform random shortest paths in a positively
// weighted undirected graph — the weighted variant of the sampling kernel
// the paper's footnote 1 alludes to — by a balanced bidirectional Dijkstra
// with exact integer distances and path counting.
//
// Two balls grow from s and t, the side that has relaxed fewer arcs going
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
// Total path weights must stay below 2^63. A WeightedSampler is not safe
// for concurrent use; each sampling thread owns one. The backing graph is
// shared and read-only.
type WeightedSampler struct {
	g   *graph.WGraph
	rng *rng.Rand

	fwd, bwd wside
	cur      uint32
	mu       uint64

	// cross holds every arc (u,v) relaxed so far with both ends settled
	// (u forward, v backward) and d_f(u)+w+d_b(v) == mu.
	cross []crossArc
	path  []graph.Node
}

// wlabel is one side's per-vertex search state, valid when stamp matches
// the sampler's current round.
type wlabel struct {
	dist  uint64
	sig   float64
	stamp uint32
	done  bool // settled: dist and sig are final
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
	work    uint64 // arcs relaxed this round
}

type crossArc struct{ u, v graph.Node }

const wInf = math.MaxUint64

// NewWeightedSampler creates a sampler over g with a private RNG.
func NewWeightedSampler(g *graph.WGraph, r *rng.Rand) *WeightedSampler {
	n := g.NumNodes()
	ws := &WeightedSampler{
		g:     g,
		rng:   r,
		fwd:   wside{lab: make([]wlabel, n)},
		bwd:   wside{lab: make([]wlabel, n)},
		cross: make([]crossArc, 0, 256),
		path:  make([]graph.Node, 0, 64),
	}
	// A search rarely queues more than n entries a side; up to 64 KiB a
	// side, reserve them now rather than regrow on the rare large search.
	ws.fwd.q.Grow(min(n, 4096))
	ws.bwd.q.Grow(min(n, 4096))
	return ws
}

// Sample draws one sample with a uniform random pair.
//
//bc:hotpath
func (ws *WeightedSampler) Sample() (internal []graph.Node, ok bool) {
	n := ws.g.NumNodes()
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
	sd.q.Reset()
	sd.lab[root] = wlabel{dist: 0, sig: 1, stamp: cur}
	sd.head, sd.headKey = root, 0
	sd.work = 0
}

// settle makes sd's head final, relaxes its arcs and advances the head.
// Each arc first offers d(head)+w+d_other(v) to mu if v carries the other
// side's label — a tentative label is still the weight of a real path — and
// is recorded as a crossing candidate when it attains mu and v is settled
// there: of an arc's two relaxations only the later one sees the far end
// settled, so no arc is recorded twice. A label is queued only if v can
// still lie on a shortest s-t path: nd must stay below mu, and nd plus v's
// remaining distance — exact if the other side settled v, else at least the
// other head's key — within it. The vertices this drops are on no shortest
// path, so neither are their successors through them, and every count the
// crossing arcs use is unaffected.
//
//bc:hotpath
func (ws *WeightedSampler) settle(sd, other *wside, forward bool) {
	cur := ws.cur
	u := sd.head
	lu := &sd.lab[u]
	lu.done = true
	du, su := lu.dist, lu.sig
	adj, wts := ws.g.Neighbors(u)
	sd.work += uint64(len(adj))
	for i, v := range adj {
		nd := du + uint64(wts[i])
		rest := other.headKey // lower bound on v's distance to the other root
		if ov := &other.lab[v]; ov.stamp == cur {
			if cand := nd + ov.dist; cand <= ws.mu {
				if cand < ws.mu {
					ws.mu = cand
					ws.cross = ws.cross[:0]
				}
				if ov.done {
					if forward {
						ws.cross = append(ws.cross, crossArc{u, v})
					} else {
						ws.cross = append(ws.cross, crossArc{v, u})
					}
				}
			}
			if ov.done {
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
		adj, wts := ws.g.Neighbors(x)
		pick := ws.rng.Float64() * sd.lab[x].sig
		var chosen graph.Node
		found := false
		for i, y := range adj {
			if ly := &sd.lab[y]; ly.stamp == cur && ly.dist+uint64(wts[i]) == dx {
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

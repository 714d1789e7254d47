package bfs

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// NumLandmarks is the number of ALT landmarks behind GoalSampler's
// potential. On a lattice one or two landmarks (the double-sweep endpoints)
// bound one axis only; a third, across the other axis, cuts the cost of a
// sample 2.5x, and three to six measure alike (BenchmarkGoalSampleRoad on
// the benchmark's 120x120 lattice: ~150 us per sample at one or two,
// 53-73 us at three to six). Four keeps a margin over three, and its
// 16-byte row never straddles a cache line.
const NumLandmarks = 4

// Landmarks is the shared, read-only ALT table (Goldberg & Harrelson,
// SODA 2005) of a goal-directed search: the BFS distance from each of
// NumLandmarks landmark vertices to every vertex, stored vertex-major so
// one sample reads one vertex's row in one cache line. It costs
// 4·NumLandmarks = 16 bytes per vertex, once per graph.
type Landmarks struct {
	// dist[v*NumLandmarks+k] is d(L_k, v), Unreached off L_k's component.
	dist []uint32
}

// NewLandmarks picks NumLandmarks landmarks on g and runs one BFS from each.
// The first ones are the given seeds (extra seeds are ignored); each further
// landmark is a farthest-point pick, the vertex farthest from its nearest
// landmark so far, lowest index on ties. A vertex no landmark reaches counts
// as infinitely far, so a disconnected graph's other components get
// landmarks too. The choice depends on g and the seeds alone.
func NewLandmarks(g *graph.Graph, seeds ...graph.Node) *Landmarks {
	n := g.NumNodes()
	lm := &Landmarks{dist: make([]uint32, n*NumLandmarks)}
	if n == 0 {
		return lm
	}
	b := New(g)
	near := make([]uint32, n)
	for i := range near {
		near[i] = Unreached
	}
	for k := 0; k < NumLandmarks; k++ {
		var l graph.Node
		if k < len(seeds) {
			l = seeds[k]
		} else {
			for v, d := range near {
				if d > near[l] {
					l = graph.Node(v)
				}
			}
		}
		for v, d := range b.Run(l) {
			lm.dist[v*NumLandmarks+k] = d
			near[v] = min(near[v], d)
		}
	}
	return lm
}

// row returns v's distances to the landmarks.
//
//bc:hotpath
func (lm *Landmarks) row(v graph.Node) *[NumLandmarks]uint32 {
	return (*[NumLandmarks]uint32)(lm.dist[int(v)*NumLandmarks:])
}

// GoalSampler is the goal-directed path sampler for unweighted undirected
// graphs of high diameter: road networks and lattices, where the balanced
// bidirectional BFS of Sampler grows two balls of radius about d(s,t)/2 to
// count paths that live in a thin s-t shortest-path DAG. It is an A*
// search from s toward t under the ALT potential
//
//	h(v) = max over landmarks L of |d(L,v) - d(L,t)|,
//
// a lower bound on d(v,t) that changes by at most one along an edge. The
// search settles vertices in (key, g) order, key = g + h, and stops when it
// settles t. Every vertex on a shortest s-t path has key <= d(s,t), so it
// is settled by then; every predecessor u of a vertex w has key(u) <=
// key(w) and g(u) < g(w), so it is settled first and w's path count sigma
// is exact when w settles, as in BFS. The walk back from t then draws each
// predecessor u of v with probability sigma(u)/sigma(v), one Float64 per
// step, which makes the path uniform among the shortest s-t paths.
//
// Along an edge the key grows by 0, 1 or 2, so the queue is a ring of three
// key levels. Each level drains in g order, merging three runs that are
// each already sorted by g: the one the level two below pushed, the one the
// level below pushed, and the one it pushes into itself. A vertex whose g
// drops is pushed again; its stale entry is skipped by its g.
//
// Per-thread memory is one 16-byte label per vertex (stamp, g, sigma: half
// of Sampler's 32) plus queues sized by the search. The Landmarks are
// shared read-only by every sampler of the graph. A GoalSampler is not
// safe for concurrent use.
type GoalSampler struct {
	g   *graph.Graph
	lm  *Landmarks
	rng *rng.Rand

	label []goalLabel
	cur   uint32

	// levels[K%3] holds key level K's runs pushed from below: near from
	// level K-1, far from level K-2. same is the current level's own run.
	levels [3]struct{ near, far []goalEntry }
	same   []goalEntry
	path   []graph.Node
}

// goalLabel is one vertex's search state, valid when stamp is the current
// search's.
type goalLabel struct {
	stamp, g uint32
	sigma    float64
}

// goalEntry is a queue entry: v reached at distance g from s.
type goalEntry struct {
	v graph.Node
	g uint32
}

// NewGoalSampler creates a goal-directed sampler over the undirected graph
// g, steered by lm (built on g), with the given private RNG.
func NewGoalSampler(g *graph.Graph, lm *Landmarks, r *rng.Rand) *GoalSampler {
	return &GoalSampler{
		g:     g,
		lm:    lm,
		rng:   r,
		label: make([]goalLabel, g.NumNodes()),
		same:  make([]goalEntry, 0, 256),
		path:  make([]graph.Node, 0, 256),
	}
}

// Sample draws one sample with Sampler.Sample's contract: a uniform random
// pair, drawn as Sampler.SamplePair draws it, and, if it is connected, a
// uniform random shortest path, as its internal vertices in a slice owned
// by the sampler.
//
//bc:hotpath
func (sp *GoalSampler) Sample() (internal []graph.Node, ok bool) {
	s, t := samplePair(sp.rng, sp.g.NumNodes())
	return sp.SamplePath(s, t)
}

// SamplePath draws a uniform random shortest s-t path. See Sample for the
// return convention.
//
//bc:hotpath
func (sp *GoalSampler) SamplePath(s, t graph.Node) (internal []graph.Node, ok bool) {
	if s == t {
		return nil, false
	}
	sp.cur++
	if sp.cur == 0 { // stamp wrapped: invalidate every label once
		for i := range sp.label {
			sp.label[i].stamp = 0
		}
		sp.cur = 1
	}
	cur := sp.cur
	for i := range sp.levels {
		sp.levels[i].near = sp.levels[i].near[:0]
		sp.levels[i].far = sp.levels[i].far[:0]
	}

	// The target's landmark distances, as int32 so that Unreached (-1)
	// cancels against itself. A landmark that reaches exactly one of s and
	// t proves them disconnected; otherwise every vertex of s's component
	// is reached by the same landmarks as t, and h stays consistent.
	var dt [NumLandmarks]int32
	rs, rt := sp.lm.row(s), sp.lm.row(t)
	for k := range dt {
		if (rs[k] == Unreached) != (rt[k] == Unreached) {
			return nil, false
		}
		dt[k] = int32(rt[k])
	}

	label := sp.label
	label[s] = goalLabel{stamp: cur, g: 0, sigma: 1}
	key := sp.lm.bound(s, &dt)
	same := append(sp.same[:0], goalEntry{v: s})
	for {
		lv := &sp.levels[key%3]
		near, far := lv.near, lv.far
		i, j, k := 0, 0, 0
	drain:
		for {
			// Pop the entry of least g among the three sorted runs.
			var e goalEntry
			switch {
			case i < len(near) && (j >= len(far) || near[i].g <= far[j].g) && (k >= len(same) || near[i].g <= same[k].g):
				e = near[i]
				i++
			case j < len(far) && (k >= len(same) || far[j].g <= same[k].g):
				e = far[j]
				j++
			case k < len(same):
				e = same[k]
				k++
			default:
				break drain
			}
			u := e.v
			if label[u].g != e.g {
				continue // stale: u was reached again on a shorter path
			}
			if u == t {
				sp.same = same
				return sp.walk(t), true
			}
			gw, su := e.g+1, label[u].sigma
			for _, w := range sp.g.Neighbors(u) {
				lw := &label[w]
				if lw.stamp == cur {
					if gw > lw.g {
						continue
					}
					if gw == lw.g {
						lw.sigma += su
						continue
					}
				}
				lw.stamp, lw.g, lw.sigma = cur, gw, su
				we := goalEntry{v: w, g: gw}
				switch gw + sp.lm.bound(w, &dt) - key {
				case 0:
					same = append(same, we)
				case 1:
					nl := &sp.levels[(key+1)%3]
					nl.near = append(nl.near, we)
				case 2:
					fl := &sp.levels[(key+2)%3]
					fl.far = append(fl.far, we)
				default:
					panic("bfs: landmark potential is not consistent")
				}
			}
		}
		lv.near, lv.far = near[:0], far[:0]
		same = same[:0]
		next, after := &sp.levels[(key+1)%3], &sp.levels[(key+2)%3]
		if len(next.near) == 0 && len(next.far) == 0 && len(after.far) == 0 {
			sp.same = same
			return nil, false // queue exhausted: t is unreachable from s
		}
		key++
	}
}

// bound is the ALT potential h(v) toward the target whose landmark
// distances are dt.
//
//bc:hotpath
func (lm *Landmarks) bound(v graph.Node, dt *[NumLandmarks]int32) uint32 {
	h := int32(0)
	for k, d := range lm.row(v) {
		x := int32(d) - dt[k]
		if x < 0 {
			x = -x
		}
		h = max(h, x)
	}
	return uint32(h)
}

// walk draws a uniform shortest path back from t to s over the settled
// labels and returns its internal vertices in s..t order.
//
//bc:hotpath
func (sp *GoalSampler) walk(t graph.Node) []graph.Node {
	label, cur := sp.label, sp.cur
	path := sp.path[:0]
	v := t
	for gv := label[t].g; gv > 1; gv-- {
		// Choose a predecessor u (g(u) == gv-1) with probability
		// sigma(u)/sigma(v); sigma(v) is the sum over them.
		pick := sp.rng.Float64() * label[v].sigma
		var chosen graph.Node
		found := false
		for _, u := range sp.g.Neighbors(v) {
			if lu := &label[u]; lu.stamp == cur && lu.g == gv-1 {
				// The last candidate absorbs floating-point slack.
				chosen, found = u, true
				if pick < lu.sigma {
					break
				}
				pick -= lu.sigma
			}
		}
		if !found {
			panic("bfs: corrupt sigma counts during path walk")
		}
		v = chosen
		path = append(path, v)
	}
	// s is the one vertex at distance 0: draw for the step and skip the scan.
	sp.rng.Float64()
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	sp.path = path
	return path
}

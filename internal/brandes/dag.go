package brandes

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pq"
)

// dag is one source's shortest-path DAG as a forward search records it,
// reused across a worker's sources. order lists the reached vertices in
// settle order (the source first), and order[i]'s group of DAG neighbours
// is arcs[end[i-1]:end[i]] (arcs[:end[0]] for the source): its successors
// when succs is set (the BFS finds those as it scans a vertex's out-arcs),
// its predecessors otherwise (the Dijkstra finds those as the vertex
// settles).
type dag struct {
	sigma []float64 // sigma[v]: number of shortest source->v paths
	// acc[v] is zero when v settles, gathers (1+delta(w))/sigma(w) over
	// v's successors w in the backward pass, and then holds
	// (1+delta(v))/sigma(v) itself.
	acc   []float64
	order []graph.Node
	end   []uint32
	arcs  []graph.Node
	succs bool
}

// newDAG sizes a record for n vertices and searches that scan arcs arcs,
// so that no source ever grows it. The searches write the far end of every
// arc they scan into the next free slot and keep it only if it is a DAG arc
// (no branch to mispredict), hence one slot to spare.
func newDAG(n, arcs int) *dag {
	return &dag{
		sigma: make([]float64, n),
		acc:   make([]float64, n),
		order: make([]graph.Node, 0, n),
		end:   make([]uint32, n),
		arcs:  make([]graph.Node, 0, arcs+1),
	}
}

// accumulate is the backward pass: it walks the record in reverse settle
// order and adds each vertex's dependency on the source,
//
//	delta(v) = sum over DAG successors w of sigma(v)/sigma(w) * (1 + delta(w)),
//
// to scores (unnormalized, one ordered pair per target); the source itself
// gets nothing. Every successor of v settles after v, so when v's turn
// comes each has passed v its (1+delta(w))/sigma(w): v pulls them from its
// group of successors, or its successors have pushed them while they
// walked their groups of predecessors. v then turns
// acc[v] = delta(v)/sigma(v) into (1+delta(v))/sigma(v).
//
//bc:hotpath
func (d *dag) accumulate(scores []float64) {
	order, end, arcs, sigma, acc := d.order, d.end, d.arcs, d.sigma, d.acc
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		group := arcs[end[i-1]:end[i]]
		a := acc[v]
		if d.succs {
			for _, w := range group {
				a += acc[w]
			}
		}
		sv := sigma[v]
		scores[v] += sv * a
		c := 1/sv + a
		acc[v] = c
		if !d.succs {
			for _, u := range group {
				acc[u] += c
			}
		}
	}
}

// forward is one kind's forward search: search(s, d) overwrites d with the
// shortest-path DAG from s.
type forward interface {
	search(s graph.Node, d *dag)
}

// bfs is the unweighted forward search over a CSR out-view: an undirected
// graph's adjacency or a digraph's out-arcs.
type bfs struct {
	offsets []uint64
	adj     []graph.Node
	dist    []int32 // -1 outside a search
}

func newBFS(offsets []uint64, adj []graph.Node) *bfs {
	dist := make([]int32, len(offsets)-1)
	for i := range dist {
		dist[i] = -1
	}
	return &bfs{offsets: offsets, adj: adj, dist: dist}
}

// search settles vertices in BFS order. One scan of v's arcs queues v's
// undiscovered neighbours and records its successors, the neighbours one
// level further from s; sigma(v) is then pushed on to them. Their sigma are
// complete once the last vertex of v's level has left the queue.
//
//bc:hotpath
func (b *bfs) search(s graph.Node, d *dag) {
	dist, sigma, acc, end := b.dist, d.sigma, d.acc, d.end
	order, arcs := append(d.order[:0], s), d.arcs[:cap(d.arcs)]
	k := 0
	dist[s], sigma[s], acc[s] = 0, 1, 0
	for head := 0; head < len(order); head++ {
		v := order[head]
		dv, sv := dist[v], sigma[v]
		first := k
		for _, u := range b.adj[b.offsets[v]:b.offsets[v+1]] {
			du := dist[u]
			if du < 0 {
				du = dv + 1
				dist[u], sigma[u], acc[u] = du, 0, 0
				order = append(order, u)
			}
			arcs[k] = u
			next := 0
			if du == dv+1 {
				next = 1
			}
			k += next
		}
		for _, u := range arcs[first:k] {
			sigma[u] += sv
		}
		end[head] = uint32(k)
	}
	for _, v := range order {
		dist[v] = -1
	}
	d.order, d.arcs, d.succs = order, arcs[:k], true
}

// dijkstra is the weighted forward search. It needs no DecreaseKey: an
// improved vertex is pushed again and its stale entries are skipped, and
// sigma(v) is pulled from v's predecessors when v settles, once its
// distance is final.
type dijkstra struct {
	g    *graph.WGraph
	dist []uint64 // math.MaxUint64 outside a search
	q    pq.Monotone
}

func newDijkstra(g *graph.WGraph) *dijkstra {
	dist := make([]uint64, g.NumNodes())
	for i := range dist {
		dist[i] = math.MaxUint64
	}
	dj := &dijkstra{g: g, dist: dist}
	// A vertex is pushed on each strict improvement, which only an arc
	// from a settled to an unsettled end makes, and each edge of an
	// undirected graph is that once at most: m+1 entries with the source.
	dj.q.Grow(g.NumEdges() + 1)
	return dj
}

// search settles vertices in distance order. One scan of v's arcs relaxes
// them and records v's predecessors: a neighbour u with dist(u) + w(u,v) =
// dist(v) has dist(u) < dist(v) (weights are positive), so it is settled.
// sigma(v) is then pulled from them.
//
//bc:hotpath
func (dj *dijkstra) search(s graph.Node, d *dag) {
	offsets, adj, wts := dj.g.Offsets, dj.g.Adj, dj.g.W
	dist, sigma, acc, end := dj.dist, d.sigma, d.acc, d.end
	order, arcs := d.order[:0], d.arcs[:cap(d.arcs)]
	k := 0
	q := &dj.q
	q.Reset()
	dist[s] = 0
	q.Push(uint32(s), 0)
	for q.Len() > 0 {
		item, dv := q.Pop()
		v := graph.Node(item)
		if dv != dist[v] {
			continue // stale: v was pushed again at a shorter distance
		}
		first := k
		for j := offsets[v]; j < offsets[v+1]; j++ {
			u, w := adj[j], uint64(wts[j])
			du := dist[u]
			if dv+w < du {
				du = dv + w
				dist[u] = du
				q.Push(uint32(u), du)
			}
			arcs[k] = u
			pred := 0
			if du+w == dv {
				pred = 1
			}
			k += pred
		}
		sv := 0.0
		for _, u := range arcs[first:k] {
			sv += sigma[u]
		}
		if len(order) == 0 {
			sv = 1
		}
		sigma[v], acc[v] = sv, 0
		end[len(order)] = uint32(k)
		order = append(order, v)
	}
	for _, v := range order {
		dist[v] = math.MaxUint64
	}
	d.order, d.arcs, d.succs = order, arcs[:k], false
}

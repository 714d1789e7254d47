// Package brandes implements the classical exact betweenness-centrality
// algorithm by Brandes (2001), sequentially and parallelized over sources.
//
// In this reproduction it plays two roles from the paper: it is the exact
// baseline against which the probabilistic (eps, delta) guarantee of the
// approximation algorithms is validated (paper §I defines the guarantee),
// and it documents the Theta(|V||E|) cost wall that motivates approximation
// in the first place (paper §II).
//
// Betweenness is reported normalized as in the paper:
//
//	b(x) = 1/(n(n-1)) * sum over ordered pairs s != t of sigma_st(x)/sigma_st
//
// which is exactly the quantity the KADABRA estimator converges to.
//
// All three graph kinds run one source-parallel driver (workers take
// sources off an atomic counter and sum into private score vectors, the
// scheme of Madduri et al. cited by the paper) over one of two forward
// searches: a BFS over a CSR out-view, which serves undirected graphs and
// digraphs alike, and a Dijkstra on a radix heap (pq.Monotone) for weighted
// graphs, which pulls sigma(v) from v's settled predecessors when v settles
// and so needs no DecreaseKey. Each search records the source's
// shortest-path DAG as it goes: per vertex in settle order its DAG
// neighbours (the successors a BFS scan finds, or the predecessors a
// Dijkstra settle finds), 4 bytes per DAG arc, and where that group ends, 4
// bytes per vertex. One backward pass walks the record in reverse settle
// order to accumulate the dependencies; it re-tests no distance and needs
// no transpose.
//
// The record takes at most one entry per arc a search scans, so it is
// sized by the arcs of the view and never grows, whatever the CSR holds.
// Besides its 8n-byte partial scores, a worker holds 28n + 4a bytes for a
// BFS kind, a the arcs it scans (2m for an undirected graph of m edges; it
// was 24n when the backward pass rescanned every arc), and 32n + 24m for
// the weighted kind (the radix heap's slab holds at most m+1 entries of 16
// bytes; the DecreaseKey heap it replaces took 46n).
package brandes

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Parallel computes normalized betweenness for every vertex using the given
// number of worker goroutines (<=0 means GOMAXPROCS).
func Parallel(g *graph.Graph, workers int) []float64 {
	return run(g.NumNodes(), workers, len(g.Adj), func() forward { return newBFS(g.Offsets, g.Adj) })
}

// ParallelDirected computes normalized directed betweenness, the same
// formula with sigma counting shortest *directed* s->t paths: the BFS
// expands along out-arcs only.
func ParallelDirected(g *graph.Digraph, workers int) []float64 {
	return run(g.NumNodes(), workers, g.NumArcs(), func() forward { return newBFS(g.OutOffsets, g.OutAdj) })
}

// ParallelWeighted computes normalized betweenness on a positively
// weighted undirected graph: Brandes' algorithm with Dijkstra searches
// instead of BFS. Path counts follow minimum total weight; integer weights
// keep the equality tests exact.
func ParallelWeighted(g *graph.WGraph, workers int) []float64 {
	return run(g.NumNodes(), workers, len(g.Adj), func() forward { return newDijkstra(g) })
}

// run is the one driver: min(workers, n) goroutines (<=0 means GOMAXPROCS)
// take sources off a shared counter, each with its own forward search, DAG
// record and partial score vector, and the partials are summed and
// normalized at the end. arcs is the number of arcs a search scans.
func run(n, workers, arcs int, newForward func() forward) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	if arcs >= math.MaxUint32 { // the record's group ends are 32-bit
		panic("brandes: graph too large for exact betweenness")
	}
	var next atomic.Int64
	partials := make([][]float64, workers)
	work := func(i int) {
		f, d, scores := newForward(), newDAG(n, arcs), make([]float64, n)
		for s := next.Add(1) - 1; s < int64(n); s = next.Add(1) - 1 {
			f.search(graph.Node(s), d)
			d.accumulate(scores)
		}
		partials[i] = scores
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
	scores := partials[0]
	for _, p := range partials[1:] {
		for i, v := range p {
			scores[i] += v
		}
	}
	if n >= 2 {
		inv := 1 / (float64(n) * float64(n-1))
		for i := range scores {
			scores[i] *= inv
		}
	}
	return scores
}

// TopK returns the indices of the k highest-scoring vertices in descending
// score order (ties broken by vertex ID). It is the helper behind the
// "identify the most central vertices" use case the paper's introduction
// motivates (finding the few vertices with betweenness above eps).
//
// It keeps the best k seen so far in a heap whose root is the worst of
// them, so it takes O(n log k) time and allocates only the k-element result.
func TopK(scores []float64, k int) []graph.Node {
	k = max(min(k, len(scores)), 0)
	// before reports whether a ranks ahead of b.
	before := func(a, b graph.Node) bool {
		return scores[a] > scores[b] || (scores[a] == scores[b] && a < b)
	}
	top := make([]graph.Node, 0, k)
	down := func(i int) {
		for {
			j := 2*i + 1
			if j >= len(top) {
				return
			}
			if r := j + 1; r < len(top) && before(top[j], top[r]) {
				j = r
			}
			if !before(top[i], top[j]) {
				return
			}
			top[i], top[j] = top[j], top[i]
			i = j
		}
	}
	for i := range scores {
		v := graph.Node(i)
		switch {
		case len(top) < k:
			top = append(top, v)
			for j := len(top) - 1; j > 0 && before(top[(j-1)/2], top[j]); j = (j - 1) / 2 {
				top[j], top[(j-1)/2] = top[(j-1)/2], top[j]
			}
		case k > 0 && before(v, top[0]):
			top[0] = v
			down(0)
		}
	}
	slices.SortFunc(top, func(a, b graph.Node) int {
		switch {
		case a == b:
			return 0
		case before(a, b):
			return -1
		}
		return 1
	})
	return top
}

package kadabra_test

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/brandes"
	"repro/internal/graph"
	. "repro/internal/kadabra"
	"repro/internal/rng"
)

func connectedWeighted(seed uint64, n, extra int, maxW uint32) *graph.WGraph {
	r := rng.NewRand(seed)
	edges := make([]graph.WeightedEdge, 0, n+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.WeightedEdge{
			U: graph.Node(v), V: graph.Node(r.Intn(v)), W: uint32(r.Intn(int(maxW))) + 1,
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.WeightedEdge{
			U: graph.Node(r.Intn(n)), V: graph.Node(r.Intn(n)), W: uint32(r.Intn(int(maxW))) + 1,
		})
	}
	g, err := graph.FromWeightedEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// naiveWeighted computes weighted betweenness by brute force over all pairs
// (Bellman-Ford distances + recursive path counting).
func naiveWeighted(g *graph.WGraph) []float64 {
	n := g.NumNodes()
	const inf = math.MaxUint64 / 2
	dist := make([][]uint64, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		d := make([]uint64, n)
		for i := range d {
			d[i] = inf
		}
		d[s] = 0
		for iter := 0; iter < n; iter++ {
			changed := false
			for v := 0; v < n; v++ {
				if d[v] >= inf {
					continue
				}
				adj, wts := g.Neighbors(graph.Node(v))
				for i, u := range adj {
					if nd := d[v] + uint64(wts[i]); nd < d[u] {
						d[u] = nd
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		sg := make([]float64, n)
		sg[s] = 1
		// Count in distance order.
		order := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if d[v] < inf {
				order = append(order, v)
			}
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && d[order[j]] < d[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, v := range order {
			adj, wts := g.Neighbors(graph.Node(v))
			for i, u := range adj {
				if d[v]+uint64(wts[i]) == d[u] {
					sg[u] += sg[v]
				}
			}
		}
		dist[s] = d
		sigma[s] = sg
	}
	scores := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] >= inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t {
					continue
				}
				if dist[s][v] < inf && dist[v][t] < inf &&
					dist[s][v]+dist[v][t] == dist[s][t] {
					scores[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
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

func TestWeightedBrandesMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		n := 10 + int(seed)*2
		g := connectedWeighted(seed, n, 2*n, 5)
		got := brandes.ParallelWeighted(g, 1)
		want := naiveWeighted(g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: %f vs %f", seed, v, got[v], want[v])
			}
		}
	}
}

func TestWeightedBrandesReducesToUnweighted(t *testing.T) {
	// All weights 1: weighted Brandes must equal unweighted Brandes.
	g := connectedWeighted(7, 60, 120, 1)
	w := brandes.ParallelWeighted(g, 1)
	u := brandes.Parallel(g.Unweighted(), 1)
	for v := range w {
		if math.Abs(w[v]-u[v]) > 1e-9 {
			t.Fatalf("vertex %d: weighted %f vs unweighted %f", v, w[v], u[v])
		}
	}
}

func TestParallelWeightedMatchesSequential(t *testing.T) {
	g := connectedWeighted(9, 150, 600, 10)
	seq := brandes.ParallelWeighted(g, 1)
	par := brandes.ParallelWeighted(g, 4)
	for v := range seq {
		if math.Abs(seq[v]-par[v]) > 1e-9 {
			t.Fatalf("vertex %d: %f vs %f", v, seq[v], par[v])
		}
	}
}

func TestWeightedSequentialGuarantee(t *testing.T) {
	g := connectedWeighted(11, 120, 500, 8)
	eps := 0.03
	res, err := Run(context.Background(), WeightedWorkload(g), 1, Config{Eps: eps, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := brandes.ParallelWeighted(g, 1)
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - res.Betweenness[v]); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("weighted max error %f exceeds eps %f (tau=%d omega=%f vd=%d)",
			worst, eps, res.Tau, res.Omega, res.VertexDiameter)
	}
}

// maxPathVertices is the true weighted vertex diameter: the most vertices
// on any minimum-weight path, ties included. Per source it runs a Dijkstra,
// then a longest-hop pass over the shortest-path DAG in distance order.
func maxPathVertices(g *graph.WGraph) int {
	n := g.NumNodes()
	best := 0
	dist := make([]uint64, n)
	hops := make([]int, n)
	order := make([]graph.Node, n)
	for s := range n {
		for i := range dist {
			dist[i] = math.MaxUint64
		}
		dist[s] = 0
		h := &distHeap{dist: dist, items: []graph.Node{graph.Node(s)}}
		for h.Len() > 0 {
			v := heap.Pop(h).(graph.Node)
			adj, wts := g.Neighbors(v)
			for i, u := range adj {
				if nd := dist[v] + uint64(wts[i]); nd < dist[u] {
					dist[u] = nd
					heap.Push(h, u)
				}
			}
		}
		for v := range order {
			order[v] = graph.Node(v)
		}
		slices.SortFunc(order, func(a, b graph.Node) int { return cmp.Compare(dist[a], dist[b]) })
		for _, v := range order {
			hops[v] = 0
			adj, wts := g.Neighbors(v)
			for i, u := range adj {
				if dist[u] != math.MaxUint64 && dist[u]+uint64(wts[i]) == dist[v] {
					hops[v] = max(hops[v], hops[u]+1)
				}
			}
			best = max(best, hops[v]+1)
		}
	}
	return best
}

// distHeap is a lazy-deletion binary heap of vertices keyed by dist.
type distHeap struct {
	dist  []uint64
	items []graph.Node
}

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.dist[h.items[i]] < h.dist[h.items[j]] }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x any)         { h.items = append(h.items, x.(graph.Node)) }
func (h *distHeap) Pop() any {
	x := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return x
}

// starWithChain is a star of 999 leaves on weight-25 spokes with a 50-vertex
// unit-weight chain hung off the centre: a leaf-to-chain-end shortest path
// holds 52 vertices, though every path through the centre is short in hops.
func starWithChain(t *testing.T) *graph.WGraph {
	var edges []graph.WeightedEdge
	for leaf := 1; leaf <= 999; leaf++ {
		edges = append(edges, graph.WeightedEdge{U: 0, V: graph.Node(leaf), W: 25})
	}
	prev := graph.Node(0)
	for v := graph.Node(1000); v < 1050; v++ {
		edges = append(edges, graph.WeightedEdge{U: prev, V: v, W: 1})
		prev = v
	}
	g, err := graph.FromWeightedEdges(1050, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWeightedVertexDiameterIsUpperBound checks the weighted phase-1 bound
// against brute force on the star-with-chain counterexample and on random
// graphs whose weights are mostly equal (so shortest paths tie and differ in
// hops), and checks that it is a property of the graph: every seed resolves
// the same value.
func TestWeightedVertexDiameterIsUpperBound(t *testing.T) {
	graphs := map[string]*graph.WGraph{"star+chain": starWithChain(t)}
	for seed := uint64(1); seed <= 60; seed++ {
		n := 8 + int(seed*7%50)
		graphs[fmt.Sprintf("random/seed%d", seed)] = connectedWeighted(seed, n, int(seed*3%uint64(2*n)), 1+uint32(seed%3))
	}
	for name, g := range graphs {
		truth := maxPathVertices(g)
		bound := WeightedVertexDiameter(bfs.SortArcsByWeight(g))
		if bound < truth || bound > g.NumNodes() {
			t.Errorf("%s: bound %d, true vertex diameter %d, n %d", name, bound, truth, g.NumNodes())
		}
		for _, seed := range []uint64{0, 1, 7, 1 << 40} {
			if vd, _ := WeightedWorkload(g).ResolveDiameter(Config{Seed: seed}); vd != bound {
				t.Errorf("%s: seed %d resolves %d, want %d", name, seed, vd, bound)
			}
		}
	}
}

func TestWeightedSequentialRejectsTiny(t *testing.T) {
	g, err := graph.FromWeightedEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), WeightedWorkload(g), 1, Config{}); err == nil {
		t.Fatal("tiny weighted graph accepted")
	}
}

package kadabra

import (
	"context"
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/graph"
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
		got := brandes.ExactWeighted(g)
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
	w := brandes.ExactWeighted(g)
	u := brandes.Exact(g.Unweighted())
	for v := range w {
		if math.Abs(w[v]-u[v]) > 1e-9 {
			t.Fatalf("vertex %d: weighted %f vs unweighted %f", v, w[v], u[v])
		}
	}
}

func TestParallelWeightedMatchesSequential(t *testing.T) {
	g := connectedWeighted(9, 150, 600, 10)
	seq := brandes.ExactWeighted(g)
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
	res, err := Run(context.Background(), WeightedWorkload(g), 0, Config{Eps: eps, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := brandes.ExactWeighted(g)
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

func TestWeightedVertexDiameterSane(t *testing.T) {
	g := connectedWeighted(13, 100, 300, 6)
	vd := WeightedVertexDiameter(g, 1)
	if vd < 2 || vd > g.NumNodes() {
		t.Fatalf("vd = %d out of [2, %d]", vd, g.NumNodes())
	}
}

func TestWeightedSequentialRejectsTiny(t *testing.T) {
	g, err := graph.FromWeightedEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), WeightedWorkload(g), 0, Config{}); err == nil {
		t.Fatal("tiny weighted graph accepted")
	}
}

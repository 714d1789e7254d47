package kadabra

import (
	"context"
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/graph"
	"repro/internal/rng"
)

func stronglyConnectedDigraph(seed uint64, n, extra int) *graph.Digraph {
	r := rng.NewRand(seed)
	arcs := make([][2]graph.Node, 0, n+extra)
	// Hamiltonian cycle guarantees strong connectivity.
	for i := 0; i < n; i++ {
		arcs = append(arcs, [2]graph.Node{graph.Node(i), graph.Node((i + 1) % n)})
	}
	for i := 0; i < extra; i++ {
		arcs = append(arcs, [2]graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n))})
	}
	return graph.FromArcs(n, arcs)
}

func TestDirectedVertexDiameterIsUpperBound(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		n := 30 + int(seed)*7
		g := stronglyConnectedDigraph(seed, n, 3*n)
		bound := DirectedVertexDiameter(g)
		// Brute-force the true directed diameter.
		truth := 0
		for s := 0; s < n; s++ {
			dist := make([]int, n)
			for i := range dist {
				dist[i] = -1
			}
			dist[s] = 0
			queue := []graph.Node{graph.Node(s)}
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for _, w := range g.Successors(v) {
					if dist[w] < 0 {
						dist[w] = dist[v] + 1
						queue = append(queue, w)
						if dist[w] > truth {
							truth = dist[w]
						}
					}
				}
			}
		}
		if bound < truth+1 {
			t.Fatalf("seed %d: bound %d below vertex diameter %d", seed, bound, truth+1)
		}
	}
}

func TestDirectedSequentialGuarantee(t *testing.T) {
	g := stronglyConnectedDigraph(3, 150, 900)
	eps := 0.03
	res, err := Run(context.Background(), DirectedWorkload(g), 0, Config{Eps: eps, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := brandes.ExactDirected(g)
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - res.Betweenness[v]); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("directed max error %f exceeds eps %f (tau=%d omega=%f)", worst, eps, res.Tau, res.Omega)
	}
}

func TestDirectedSequentialAsymmetry(t *testing.T) {
	// A graph where direction matters: a long one-way detour means the
	// "middle" vertex of the cycle carries directed betweenness that the
	// undirected view would distribute differently. Just verify scores are
	// sane and deterministic.
	g := stronglyConnectedDigraph(5, 80, 80)
	a, err := Run(context.Background(), DirectedWorkload(g), 0, Config{Eps: 0.05, Delta: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), DirectedWorkload(g), 0, Config{Eps: 0.05, Delta: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau {
		t.Fatal("directed run not deterministic")
	}
	for _, s := range a.Betweenness {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score out of range: %f", s)
		}
	}
}

func TestDirectedSequentialRejectsTiny(t *testing.T) {
	if _, err := Run(context.Background(), DirectedWorkload(graph.FromArcs(1, nil)), 0, Config{}); err == nil {
		t.Fatal("tiny digraph accepted")
	}
}

func TestDirectedBrandesMatchesUndirectedOnSymmetricGraph(t *testing.T) {
	// A digraph with both arc directions for every edge must reproduce the
	// undirected betweenness exactly.
	r := rng.NewRand(11)
	n := 40
	var arcs [][2]graph.Node
	var edges [][2]graph.Node
	for i := 0; i < 120; i++ {
		u, v := graph.Node(r.Intn(n)), graph.Node(r.Intn(n))
		arcs = append(arcs, [2]graph.Node{u, v}, [2]graph.Node{v, u})
		edges = append(edges, [2]graph.Node{u, v})
	}
	dg := graph.FromArcs(n, arcs)
	ug := graph.FromEdges(n, edges)
	dScores := brandes.ExactDirected(dg)
	uScores := brandes.Exact(ug)
	for v := range dScores {
		if math.Abs(dScores[v]-uScores[v]) > 1e-9 {
			t.Fatalf("vertex %d: directed %f vs undirected %f", v, dScores[v], uScores[v])
		}
	}
}

func TestParallelDirectedMatchesSequential(t *testing.T) {
	g := stronglyConnectedDigraph(13, 200, 1200)
	seq := brandes.ExactDirected(g)
	par := brandes.ParallelDirected(g, 4)
	for v := range seq {
		if math.Abs(seq[v]-par[v]) > 1e-9 {
			t.Fatalf("vertex %d: %f vs %f", v, seq[v], par[v])
		}
	}
}

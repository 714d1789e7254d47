// Quickstart: approximate betweenness centrality on a synthetic social
// network through the public API, compare against the exact values, and
// print the most central vertices.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/betweenness"
	"repro/graph"
)

func main() {
	// 1. Build a graph. Any *graph.Graph works: load one with
	//    graph.LoadFile or generate one. Here: an R-MAT social network with
	//    Graph500 parameters, reduced to its largest connected component
	//    (betweenness is defined pairwise, so disconnected fragments only
	//    dilute the scores).
	g := graph.RMAT(graph.Graph500(12, 16, 42))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// 2. Approximate betweenness. Epsilon is the absolute error bound:
	//    with probability 1-delta, every vertex's estimate is within
	//    epsilon of the truth. Smaller epsilon costs more samples
	//    (~1/eps^2). The default backend uses every CPU core; cancel the
	//    context to abort a long run early.
	const eps = 0.01
	start := time.Now()
	res, err := betweenness.Estimate(context.Background(), betweenness.Undirected(g),
		betweenness.WithEpsilon(eps),
		betweenness.WithDelta(0.1),
		betweenness.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximation [%s]: %v (%d samples, omega=%.0f, %d epochs)\n",
		res.Backend, time.Since(start).Round(time.Millisecond), res.Tau, res.Omega, res.Epochs)

	// 3. Inspect the top vertices.
	fmt.Println("top-5 vertices by approximate betweenness:")
	for i, v := range res.TopK(5) {
		fmt.Printf("  %d. vertex %6d  b~ = %.5f\n", i+1, v, res.Estimates[v])
	}

	// 4. Validate against the exact algorithm (feasible at this scale; the
	//    whole point of the paper is that it is NOT feasible at billions of
	//    edges).
	start = time.Now()
	exact := betweenness.Exact(g, 0)
	fmt.Printf("exact Brandes: %v\n", time.Since(start).Round(time.Millisecond))
	rep := betweenness.Compare(exact, res.Estimates, eps)
	fmt.Printf("max abs error: %.5f (guarantee: <= %.3f with prob 0.9)\n", rep.MaxAbs, eps)
	fmt.Printf("top-10 overlap with exact: %.0f%%\n", 100*betweenness.TopKOverlap(exact, res.Estimates, 10))
}

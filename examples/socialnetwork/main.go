// Social-network analysis: find the key "broker" accounts in a large
// synthetic social graph using the distributed epoch-based algorithm
// (paper Algorithm 2) on an in-process cluster, and show why small eps
// matters for identifying them — the motivating use case of the paper's
// introduction ("on many graphs only a handful of vertices have a
// betweenness score larger than 0.01").
//
// Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/betweenness"
	"repro/graph"
)

func main() {
	// A Graph500-parameter R-MAT graph: heavy-tailed degrees, tiny diameter
	// — the same family the paper uses to model social networks.
	g := graph.RMAT(graph.Graph500(14, 24, 99))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: %d accounts, %d follow edges\n", g.NumNodes(), g.NumEdges())

	// Distributed run: 4 in-process ranks x 4 threads, hierarchical
	// aggregation with 2 ranks per "node" (the paper's one-process-per-
	// NUMA-socket layout).
	run := func(eps float64) (*betweenness.Result, time.Duration) {
		start := time.Now()
		res, err := betweenness.Estimate(context.Background(), betweenness.Undirected(g),
			betweenness.WithEpsilon(eps),
			betweenness.WithDelta(0.1),
			betweenness.WithSeed(3),
			betweenness.WithThreads(4),
			betweenness.WithHierarchical(2),
			betweenness.WithExecutor(betweenness.LocalMPI(4)))
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}

	// Coarse pass: eps = 0.05 is cheap but can only separate vertices whose
	// betweenness differs by ~0.05 — usually just one or two hubs.
	coarse, coarseTime := run(0.05)
	// Fine pass: eps = 0.005 costs ~100x more samples but resolves the
	// whole head of the ranking.
	fine, fineTime := run(0.005)

	fmt.Printf("\ncoarse (eps=0.05):  %8d samples in %v\n", coarse.Tau, coarseTime.Round(time.Millisecond))
	fmt.Printf("fine   (eps=0.005): %8d samples in %v\n", fine.Tau, fineTime.Round(time.Millisecond))

	// How many brokers can each pass reliably distinguish from zero?
	countAbove := func(scores []float64, eps float64) int {
		c := 0
		for _, s := range scores {
			if s > eps {
				c++
			}
		}
		return c
	}
	fmt.Printf("\naccounts with betweenness provably > 0 at coarse eps: %d\n",
		countAbove(coarse.Estimates, 2*0.05))
	fmt.Printf("accounts with betweenness provably > 0 at fine eps:   %d\n",
		countAbove(fine.Estimates, 2*0.005))

	fmt.Println("\ntop-10 broker accounts (fine pass):")
	top := fine.TopK(10)
	for i, v := range top {
		fmt.Printf("  %2d. account %6d  b~ = %.5f  (degree %d)\n",
			i+1, v, fine.Estimates[v], g.Degree(v))
	}

	// Brokers are not simply the highest-degree accounts: compare rankings.
	deg := make([]graph.Node, g.NumNodes())
	for i := range deg {
		deg[i] = graph.Node(i)
	}
	sort.Slice(deg, func(i, j int) bool { return g.Degree(deg[i]) > g.Degree(deg[j]) })
	degRank := map[graph.Node]int{}
	for i, v := range deg {
		degRank[v] = i + 1
	}
	fmt.Println("\ndegree rank of each top broker (betweenness != degree):")
	for i, v := range top {
		fmt.Printf("  betweenness rank %2d -> degree rank %d\n", i+1, degRank[v])
	}
}

// Example directedweighted demonstrates the directed and weighted
// estimation paths of the public API (the paper's footnote 1 made
// first-class): the Undirected/Directed/Weighted constructors produce
// tagged betweenness.Workload values, and the workload-generic
// EstimateWorkload front door runs any of them on any backend — here the
// directed workload on the distributed LocalMPI backend (paper Algorithm
// 2 over in-process ranks) and the weighted workload on the shared-memory
// backend, both validated against their exact Brandes ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/betweenness"
	"repro/graph"
)

func main() {
	ctx := context.Background()

	// Every built-in backend reports all three workload kinds.
	for _, exec := range []betweenness.Executor{
		betweenness.Sequential(),
		betweenness.SharedMemory(),
		betweenness.LocalMPI(2),
	} {
		fmt.Printf("backend %-13s capabilities: %v\n", exec.Name(), exec.Capabilities())
	}

	// --- Directed workload on the distributed backend. --------------------
	dg := graph.RandomDigraph(400, 3200, 1)
	fmt.Printf("\ndigraph: %d nodes, %d arcs\n", dg.NumNodes(), dg.NumArcs())

	dres, err := betweenness.EstimateWorkload(ctx, betweenness.Directed(dg),
		betweenness.WithEpsilon(0.02),
		betweenness.WithThreads(2),
		betweenness.WithExecutor(betweenness.LocalMPI(2)))
	if err != nil {
		log.Fatal(err)
	}
	dexact := betweenness.ExactDirected(dg, 0)
	drep := betweenness.Compare(dexact, dres.Estimates, 0.02)
	fmt.Printf("directed:  tau=%-8d max|err|=%.4f (eps 0.02, backend %s, %d epochs)\n",
		dres.Tau, drep.MaxAbs, dres.Backend, dres.Distributed.Epochs)

	// --- Weighted workload: a road-like lattice with random travel times. --
	base := graph.Road(graph.RoadParams{Rows: 20, Cols: 20, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: 7})
	lcc, _, err := graph.LargestComponent(base)
	if err != nil {
		log.Fatal(err)
	}
	wg := graph.RandomWeights(lcc, 10, 7)
	fmt.Printf("weighted graph: %d nodes, %d edges\n", wg.NumNodes(), wg.NumEdges())

	wres, err := betweenness.EstimateWorkload(ctx, betweenness.Weighted(wg),
		betweenness.WithEpsilon(0.02),
		betweenness.WithThreads(4),
		betweenness.WithTopK(5),
		betweenness.WithExecutor(betweenness.SharedMemory()))
	if err != nil {
		log.Fatal(err)
	}
	wexact := betweenness.ExactWeighted(wg, 0)
	wrep := betweenness.Compare(wexact, wres.Estimates, 0.02)
	fmt.Printf("weighted:  tau=%-8d max|err|=%.4f (eps 0.02, backend %s)\n",
		wres.Tau, wrep.MaxAbs, wres.Backend)

	fmt.Println("top-5 weighted vertices:")
	for i, v := range wres.Top {
		fmt.Printf("  %d. vertex %4d  b~ = %.5f  (exact %.5f)\n",
			i+1, v, wres.Estimates[v], wexact[v])
	}
}

// Road-network study: the paper's hard case. High-diameter graphs make
// betweenness approximation expensive twice over — the sample budget omega
// grows with log2(diameter), and every bidirectional-BFS sample must grow
// balls that cover a large fraction of the graph. This example measures
// both effects against a social network of comparable size and shows the
// effect of the paper's epoch-based parallelization on exactly this
// workload (the paper: "smaller road networks ... proved to be challenging
// ... the largest of those networks requires 14 hours ... on a single node
// at eps = 0.001").
//
// Run with:
//
//	go run ./examples/roadnetwork
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
	// A perturbed lattice mimicking a state road network, and an R-MAT
	// social network with a similar node count.
	road := graph.Road(graph.RoadParams{Rows: 110, Cols: 110, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: 5})
	road, _, err := graph.LargestComponent(road)
	if err != nil {
		log.Fatal(err)
	}
	social := graph.RMAT(graph.Graph500(13, 4, 5))
	social, _, err = graph.LargestComponent(social)
	if err != nil {
		log.Fatal(err)
	}

	analyze := func(name string, g *graph.Graph) {
		d := graph.Diameter(g)
		fmt.Printf("%-8s %7d nodes %8d edges  diameter %4d\n", name, g.NumNodes(), g.NumEdges(), d)
	}
	analyze("road", road)
	analyze("social", social)

	eps := 0.02
	run := func(name string, g *graph.Graph, threads int) *betweenness.Result {
		exec := betweenness.Sequential()
		if threads > 1 {
			exec = betweenness.SharedMemory()
		}
		res, err := betweenness.Estimate(context.Background(), betweenness.Undirected(g),
			betweenness.WithEpsilon(eps),
			betweenness.WithDelta(0.1),
			betweenness.WithSeed(11),
			betweenness.WithThreads(threads),
			betweenness.WithExecutor(exec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s T=%2d: omega=%8.0f tau=%8d  epochs=%3d  total=%8v (diam=%v calib=%v sampling=%v)\n",
			name, threads, res.Omega, res.Tau, res.Epochs,
			res.Timings.Total().Round(time.Millisecond),
			res.Timings.Diameter.Round(time.Millisecond),
			res.Timings.Calibration.Round(time.Millisecond),
			res.Timings.Sampling.Round(time.Millisecond))
		return res
	}

	fmt.Printf("\napproximating with eps=%.2f, delta=0.1\n", eps)
	// The road network needs a larger omega (diameter term) AND each sample
	// costs far more.
	roadSeq := run("road", road, 1)
	socialSeq := run("social", social, 1)
	fmt.Printf("\nroad/social sample-budget ratio (omega): %.2fx\n", roadSeq.Omega/socialSeq.Omega)
	fmt.Printf("road/social sampling-time ratio:        %.2fx\n",
		float64(roadSeq.Timings.Sampling)/float64(socialSeq.Timings.Sampling))

	// Parallelism helps the road case the most — its runtime is almost all
	// adaptive sampling, the phase the epoch framework parallelizes.
	fmt.Println()
	roadPar := run("road", road, 8)
	speedup := float64(roadSeq.Timings.Sampling) / float64(roadPar.Timings.Sampling)
	fmt.Printf("\nroad network ADS speedup with 8 threads: %.1fx\n", speedup)

	fmt.Println("\ntop-5 road bottlenecks (bridges and arterials):")
	for i, v := range roadPar.TopK(5) {
		fmt.Printf("  %d. junction %6d  b~ = %.5f\n", i+1, v, roadPar.Estimates[v])
	}
}

// Command bcexact computes exact betweenness centrality with Brandes'
// algorithm (parallelized over sources) via the public repro/betweenness
// API. It is the ground-truth tool for validating the approximation
// guarantee and the practical demonstration of the Theta(|V||E|) cost wall
// that motivates the paper.
//
// Directed and weighted variants mirror the estimation paths: -directed
// reads an arc list and counts shortest directed paths over ordered pairs;
// -weighted reads a "u v w" edge list and follows minimum total weight.
//
// Each worker runs one forward search per source (a BFS over out-arcs, or
// a Dijkstra on a radix heap with -weighted) that records the source's
// shortest-path DAG, then walks that record backwards to accumulate the
// dependencies, touching only DAG arcs. For n vertices and m edges, a
// worker holds 28n + 8m bytes (28n + 4m for m arcs with -directed; 24n
// before the record, when the backward pass rescanned every arc), or 32n +
// 24m with -weighted (46n with the DecreaseKey heap it replaced): -workers
// trades that memory for speed.
//
// Examples:
//
//	bcexact -graph web.txt -workers 8 -top 10
//	bcexact -directed -graph links.txt -top 10
//	bcexact -weighted -graph roads.txt -top 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/betweenness"
	"repro/graph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file (edge list or .bcsr; arc list with -directed; weighted edge list with -weighted)")
		directed  = flag.Bool("directed", false, "directed betweenness (input is an arc list)")
		weighted  = flag.Bool("weighted", false, "weighted betweenness (input is a weighted edge list)")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		topK      = flag.Int("top", 10, "print the top-k vertices")
		outPath   = flag.String("o", "", "write all scores to this file (one per line)")
	)
	flag.Parse()
	if *graphPath == "" {
		fatal(fmt.Errorf("need -graph FILE"))
	}
	if *directed && *weighted {
		fatal(fmt.Errorf("-directed and -weighted are mutually exclusive"))
	}

	var scores []float64
	start := time.Now()
	switch {
	case *directed:
		g, err := graph.LoadDigraphFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		// Exact Brandes handles arbitrary digraphs; reduce to the largest
		// SCC anyway so the scores are comparable with bcapprox -directed.
		g, _, err = graph.LargestSCC(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("digraph: %d nodes, %d arcs (largest strongly connected component)\n",
			g.NumNodes(), g.NumArcs())
		start = time.Now()
		scores = betweenness.ExactDirected(g, *workers)
	case *weighted:
		g, err := graph.LoadWGraphFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, _, err = graph.LargestComponentW(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("weighted graph: %d nodes, %d edges (largest connected component)\n",
			g.NumNodes(), g.NumEdges())
		start = time.Now()
		scores = betweenness.ExactWeighted(g, *workers)
	default:
		g, err := graph.LoadFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, _, err = graph.LargestComponent(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d nodes, %d edges (largest connected component)\n", g.NumNodes(), g.NumEdges())
		start = time.Now()
		scores = betweenness.Exact(g, *workers)
	}
	fmt.Printf("exact betweenness in %v\n", time.Since(start).Round(time.Millisecond))

	for i, v := range betweenness.TopKOf(scores, *topK) {
		fmt.Printf("  %2d. vertex %8d  b = %.6f\n", i+1, v, scores[v])
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		for v, s := range scores {
			fmt.Fprintf(f, "%d %.12f\n", v, s)
		}
		fmt.Printf("scores written to %s\n", *outPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcexact:", err)
	os.Exit(1)
}

package betweenness

import (
	"repro/graph"
	"repro/internal/brandes"
	"repro/internal/stats"
)

// Exact computes exact normalized betweenness with Brandes' algorithm,
// parallelized over sources across the given number of worker goroutines
// (0 = one per CPU core). It costs Theta(|V||E|) — the wall the paper's
// approximation exists to avoid — so it is feasible only on small graphs,
// chiefly as ground truth for validating Estimate.
func Exact(g *graph.Graph, workers int) []float64 {
	return brandes.Parallel(g, workers)
}

// ExactDirected computes exact normalized directed betweenness (shortest
// directed paths, ordered pairs) with the directed Brandes variant,
// parallelized over sources — the ground truth for the Directed workload.
func ExactDirected(g *graph.Digraph, workers int) []float64 {
	return brandes.ParallelDirected(g, workers)
}

// ExactWeighted computes exact normalized betweenness on a positively
// weighted undirected graph (Brandes with Dijkstra searches and exact
// integer distances), parallelized over sources — the ground truth for the
// Weighted workload.
func ExactWeighted(g *graph.WGraph, workers int) []float64 {
	return brandes.ParallelWeighted(g, workers)
}

// TopKOf returns the k highest-scoring vertices of any score vector in
// descending order (ties broken by vertex ID).
func TopKOf(scores []float64, k int) []graph.Node {
	return brandes.TopK(scores, k)
}

// ErrorReport summarizes how an approximation compares against exact
// scores, including whether the (eps, delta) guarantee held.
type ErrorReport = stats.ErrorReport

// Compare builds an ErrorReport for approx against exact under the given
// epsilon.
func Compare(exact, approx []float64, eps float64) ErrorReport {
	return stats.CompareScores(exact, approx, eps)
}

// TopKOverlap returns the fraction of overlap between the top-k sets of
// two score vectors — the practical "did we find the same hubs" metric.
func TopKOverlap(a, b []float64, k int) float64 {
	return stats.TopKOverlap(a, b, k)
}

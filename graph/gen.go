package graph

import (
	"repro/internal/gen"
)

// Synthetic generators: the graph families the paper evaluates on
// (Graph500 R-MAT social proxies, random hyperbolic graphs, perturbed
// road lattices) plus classic baselines.

// RMATParams parameterizes the recursive-matrix generator.
type RMATParams = gen.RMATParams

// Graph500 returns the Graph500-benchmark R-MAT parameters for 2^scale
// vertices with the given edge factor.
func Graph500(scale, edgeFactor int, seed uint64) RMATParams {
	return gen.Graph500(scale, edgeFactor, seed)
}

// RMAT generates a recursive-matrix random graph (heavy-tailed degrees,
// small diameter — the paper's social-network proxy). Generation uses
// every CPU; the graph is byte-identical for any GOMAXPROCS.
func RMAT(p RMATParams) *Graph { return gen.RMAT(p) }

// HyperbolicParams parameterizes the random hyperbolic generator.
type HyperbolicParams = gen.HyperbolicParams

// Hyperbolic generates a random hyperbolic graph (power-law degrees with
// tunable exponent — the paper's web-graph proxy).
func Hyperbolic(p HyperbolicParams) *Graph { return gen.Hyperbolic(p) }

// RoadParams parameterizes the perturbed-lattice road generator.
type RoadParams = gen.RoadParams

// Road generates a perturbed lattice mimicking a road network (high
// diameter — the paper's hard case).
func Road(p RoadParams) *Graph { return gen.Road(p) }

// ErdosRenyi generates a uniform random graph with n vertices and m edges.
func ErdosRenyi(n, m int, seed uint64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// BarabasiAlbert generates a preferential-attachment graph where every new
// vertex attaches k edges.
func BarabasiAlbert(n, k int, seed uint64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// StreamRMAT emits the edge sequence RMAT builds its graph from — self
// loops and duplicates included — through a callback, so huge instances
// stream into the out-of-core converter without being materialized. It
// generates on every CPU and emits in stream order from a few buffers per
// CPU: the sequence is the same for any GOMAXPROCS.
func StreamRMAT(p RMATParams, emit func(u, v Node) error) error {
	return gen.StreamRMAT(p, emit)
}

// StreamErdosRenyi emits the exact edge sequence ErdosRenyi consumes.
func StreamErdosRenyi(n, m int, seed uint64, emit func(u, v Node) error) error {
	return gen.StreamErdosRenyi(n, m, seed, emit)
}

// StreamRoad emits the exact edge sequence Road consumes.
func StreamRoad(p RoadParams, emit func(u, v Node) error) error {
	return gen.StreamRoad(p, emit)
}

// RandomDigraph generates a random strongly connected digraph on n vertices
// with approximately m arcs (a random Hamiltonian cycle guarantees strong
// connectivity; the remaining arcs are uniform).
func RandomDigraph(n, m int, seed uint64) *Digraph { return gen.RandomDigraph(n, m, seed) }

// RandomWeights assigns every edge of g an independent uniform integer
// weight in [1, maxWeight], turning any generator's output into a weighted
// instance. The topology is unchanged.
func RandomWeights(g *Graph, maxWeight uint32, seed uint64) *WGraph {
	return gen.RandomWeights(g, maxWeight, seed)
}

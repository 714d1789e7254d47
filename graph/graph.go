// Package graph is the public graph surface of this repository: the CSR
// graph type used by every betweenness algorithm, a builder, file loaders
// and writers, connectivity helpers, diameter routines, and the synthetic
// generators behind the paper's Table I proxy suite.
//
// The types are aliases of the implementation under internal/graph, so
// values flow freely between this package and repro/betweenness without
// conversion; external modules should import only the public packages.
package graph

import (
	"fmt"

	igraph "repro/internal/graph"
)

// Node is a vertex identifier in [0, NumNodes).
type Node = igraph.Node

// Graph is an immutable undirected graph in CSR form.
type Graph = igraph.Graph

// Digraph is an immutable directed graph with both adjacency directions.
type Digraph = igraph.Digraph

// WGraph is an immutable undirected graph with uint32 edge weights.
type WGraph = igraph.WGraph

// WeightedEdge is one weighted edge for FromWeightedEdges.
type WeightedEdge = igraph.WeightedEdge

// Builder accumulates edges and produces a deduplicated CSR graph. An edge
// costs 8 bytes until Build, which radix-sorts them and lays out every
// neighbour list already ascending.
type Builder = igraph.Builder

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return igraph.NewBuilder(n) }

// FromEdges builds an undirected graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]Node) *Graph { return igraph.FromEdges(n, edges) }

// FromArcs builds a directed graph on n vertices from an arc list.
func FromArcs(n int, arcs [][2]Node) *Digraph { return igraph.FromArcs(n, arcs) }

// FromWeightedEdges builds a weighted undirected graph on n vertices, on
// Builder's construction path. Self loops are dropped, a duplicated edge
// keeps its minimum weight, and a zero weight is an error.
func FromWeightedEdges(n int, edges []WeightedEdge) (*WGraph, error) {
	return igraph.FromWeightedEdges(n, edges)
}

// ConnectedComponents labels every vertex with its component index and
// returns the component sizes.
func ConnectedComponents(g *Graph) (labels []int32, sizes []int) {
	return igraph.ConnectedComponents(g)
}

// IsConnected reports whether g has a single connected component.
func IsConnected(g *Graph) bool { return igraph.IsConnected(g) }

// Subgraph returns the induced subgraph on keep and the old-to-new ID
// mapping. The distinct IDs of keep are renumbered 0..k-1 in ascending
// order (an ID listed twice is one vertex); an out-of-range ID panics.
func Subgraph(g *Graph, keep []Node) (*Graph, map[Node]Node) {
	return igraph.Subgraph(g, keep)
}

// LargestComponent returns the induced subgraph on the largest connected
// component, as the paper does for disconnected inputs (§V-A), along with
// the old-to-new vertex ID mapping for the vertices that were kept. A nil
// mapping means the input was already connected and is returned as-is —
// no identity map is materialized, so a connected mapped graph
// (OpenMapped) passes through with zero copies and zero per-vertex heap.
//
// It fails when the result would be unusable for betweenness estimation —
// an empty graph, or a largest component consisting of a single isolated
// vertex — so callers cannot silently proceed on a degenerate input.
func LargestComponent(g *Graph) (*Graph, map[Node]Node, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, nil, fmt.Errorf("graph: largest component of an empty graph")
	}
	lcc, remap := igraph.LargestComponent(g)
	if lcc.NumNodes() < 2 {
		return nil, nil, fmt.Errorf(
			"graph: largest connected component has %d vertices (need >= 2); the input has no edges",
			lcc.NumNodes())
	}
	return lcc, remap, nil
}

// LargestComponentW is the weighted analogue of LargestComponent: it
// returns the induced weighted subgraph on the largest connected component
// (weights carried over) and the old-to-new vertex ID mapping (nil =
// already connected, returned as-is), failing on degenerate inputs under
// the same rules.
func LargestComponentW(g *WGraph) (*WGraph, map[Node]Node, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, nil, fmt.Errorf("graph: largest component of an empty graph")
	}
	lcc, remap := igraph.LargestComponentW(g)
	if lcc.NumNodes() < 2 {
		return nil, nil, fmt.Errorf(
			"graph: largest connected component has %d vertices (need >= 2); the input has no edges",
			lcc.NumNodes())
	}
	return lcc, remap, nil
}

// StronglyConnectedComponents labels every vertex of a digraph with its
// SCC index and returns the SCC sizes.
func StronglyConnectedComponents(g *Digraph) (labels []int32, sizes []int) {
	return igraph.StronglyConnectedComponents(g)
}

// LargestSCC returns the induced subgraph on the largest strongly
// connected component and the old-to-new ID mapping.
//
// Like LargestComponent, it fails when the result would be unusable for
// betweenness estimation — an empty digraph, or a largest SCC consisting
// of a single vertex — so callers cannot silently proceed on a degenerate
// input.
func LargestSCC(g *Digraph) (*Digraph, map[Node]Node, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, nil, fmt.Errorf("graph: largest SCC of an empty digraph")
	}
	scc, remap := igraph.LargestSCC(g)
	if scc.NumNodes() < 2 {
		return nil, nil, fmt.Errorf(
			"graph: largest strongly connected component has %d vertices (need >= 2); the input has no cycles",
			scc.NumNodes())
	}
	return scc, remap, nil
}

package graph

import (
	"repro/internal/diameter"
)

// Diameter computes the exact diameter of the connected graph g with iFUB
// (the iterative fringe upper bound method): a handful of BFS sweeps on
// typical inputs, not one from every vertex, though Theta(|V||E|) in the
// worst case.
func Diameter(g *Graph) int { return int(diameter.IFUB(g)) }

// VertexDiameter returns the number of vertices on a longest shortest
// path, the quantity the KADABRA sample budget omega depends on.
func VertexDiameter(g *Graph) int { return diameter.VertexDiameter(g) }

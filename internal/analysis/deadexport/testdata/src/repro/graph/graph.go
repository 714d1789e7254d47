// Package graph is the public face of repro/internal/graph.
package graph

import (
	"repro/internal/core"
	igraph "repro/internal/graph"
)

// Digraph is public API through the alias.
type Digraph = igraph.Digraph

// Scratch hands out the internal scratch type without re-exporting it.
func Scratch() any { core.Run(); return igraph.NewScratch() }

// Package graph holds the types that repro/graph re-exports by alias: their
// methods and fields are public API whether or not the module calls them.
package graph

// Digraph is re-exported as repro/graph.Digraph.
type Digraph struct {
	InOffsets []uint64
	InAdj     []uint32
}

// InDegree has no caller in the module.
func (g *Digraph) InDegree(v uint32) int { return int(g.InOffsets[v+1] - g.InOffsets[v]) }

// Scratch is not re-exported, and no non-test file uses its field.
type Scratch struct {
	Buf []byte // want `exported Scratch.Buf has no reference`
}

// NewScratch keeps Scratch itself in use.
func NewScratch() *Scratch { return new(Scratch) }

package graph

import (
	"fmt"
	"slices"
)

// Digraph is an immutable directed graph storing both the out-adjacency and
// the in-adjacency in CSR form. The paper's setup stores "both the graph
// and its reverse/transpose to be able to efficiently compute a
// bidirectional BFS" (§IV-F) — for directed graphs the transpose is
// explicit, and the backward ball of the bidirectional sampler walks it.
type Digraph struct {
	OutOffsets []uint64
	OutAdj     []Node
	InOffsets  []uint64
	InAdj      []Node
}

// NumNodes returns |V|.
func (g *Digraph) NumNodes() int { return len(g.OutOffsets) - 1 }

// NumArcs returns the number of directed edges.
func (g *Digraph) NumArcs() int { return len(g.OutAdj) }

// OutDegree and InDegree return the respective degrees of v.
func (g *Digraph) OutDegree(v Node) int { return int(g.OutOffsets[v+1] - g.OutOffsets[v]) }
func (g *Digraph) InDegree(v Node) int  { return int(g.InOffsets[v+1] - g.InOffsets[v]) }

// Successors returns v's out-neighbours (sorted, read-only).
func (g *Digraph) Successors(v Node) []Node {
	return g.OutAdj[g.OutOffsets[v]:g.OutOffsets[v+1]]
}

// Predecessors returns v's in-neighbours (sorted, read-only).
func (g *Digraph) Predecessors(v Node) []Node {
	return g.InAdj[g.InOffsets[v]:g.InOffsets[v+1]]
}

// FromArcs builds a digraph from a directed edge list, dropping self loops
// and duplicate arcs. It takes Builder's path: each arc is one packed key
// u<<s | v, radix-sorted, and both CSR halves come out sorted. The keys
// ascend in (u, v), so u's successors arrive in ascending v, and v's
// predecessors in ascending u.
func FromArcs(n int, arcs [][2]Node) *Digraph {
	shift := keyShift(n)
	keys := make([]uint64, 0, len(arcs))
	for _, a := range arcs {
		if int(a[0]) >= n || int(a[1]) >= n {
			panic(fmt.Sprintf("graph: arc (%d,%d) out of range for n=%d", a[0], a[1], n))
		}
		if a[0] != a[1] {
			keys = append(keys, uint64(a[0])<<shift|uint64(a[1]))
		}
	}
	sortKeys(keys, nil, 2*shift)
	keys = slices.Compact(keys)
	g := &Digraph{
		OutOffsets: make([]uint64, n+1),
		InOffsets:  make([]uint64, n+1),
		OutAdj:     make([]Node, len(keys)),
		InAdj:      make([]Node, len(keys)),
	}
	mask := uint64(1)<<shift - 1
	for _, k := range keys {
		g.OutOffsets[k>>shift+1]++
		g.InOffsets[k&mask+1]++
	}
	for v := 0; v < n; v++ {
		g.OutOffsets[v+1] += g.OutOffsets[v]
		g.InOffsets[v+1] += g.InOffsets[v]
	}
	in := slices.Clone(g.InOffsets[:n])
	for i, k := range keys {
		u, v := k>>shift, k&mask
		g.OutAdj[i] = Node(v)
		g.InAdj[in[v]] = Node(u)
		in[v]++
	}
	return g
}

// Validate checks structural invariants of both CSR halves and their
// consistency (every out-arc appears as an in-arc and vice versa).
func (g *Digraph) Validate() error {
	n := g.NumNodes()
	if len(g.InOffsets) != n+1 {
		return fmt.Errorf("graph: in/out offset length mismatch")
	}
	if len(g.OutAdj) != len(g.InAdj) {
		return fmt.Errorf("graph: out has %d arcs, in has %d", len(g.OutAdj), len(g.InAdj))
	}
	type arc struct{ u, v Node }
	seen := make(map[arc]bool, len(g.OutAdj))
	for v := 0; v < n; v++ {
		succ := g.Successors(Node(v))
		for i, w := range succ {
			if w >= Node(n) || w == Node(v) {
				return fmt.Errorf("graph: bad successor %d of %d", w, v)
			}
			if i > 0 && succ[i-1] >= w {
				return fmt.Errorf("graph: successors of %d not strictly sorted", v)
			}
			seen[arc{Node(v), w}] = true
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Predecessors(Node(v)) {
			if !seen[arc{u, Node(v)}] {
				return fmt.Errorf("graph: in-arc %d->%d missing from out lists", u, v)
			}
		}
	}
	return nil
}

// StronglyConnectedComponents labels each vertex with an SCC id in [0, k)
// and returns the labels and component sizes, using an iterative Tarjan
// algorithm (explicit stack; safe for deep graphs).
func StronglyConnectedComponents(g *Digraph) (labels []int32, sizes []int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []Node // Tarjan stack
	var next int32   // next DFS index
	var sccCount int32

	type frame struct {
		v    Node
		succ int // next successor position to visit
	}
	var dfs []frame
	for start := 0; start < n; start++ {
		if index[start] >= 0 {
			continue
		}
		dfs = append(dfs[:0], frame{v: Node(start)})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, Node(start))
		onStack[start] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			succ := g.Successors(f.v)
			if f.succ < len(succ) {
				w := succ[f.succ]
				f.succ++
				if index[w] < 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// All successors done: close v.
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				parent := dfs[len(dfs)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					labels[w] = sccCount
					size++
					if w == v {
						break
					}
				}
				sizes = append(sizes, size)
				sccCount++
			}
		}
	}
	return labels, sizes
}

// LargestSCC returns the induced subgraph on the largest strongly connected
// component, with the old->new vertex mapping. Directed betweenness
// sampling requires strong connectivity for the bidirectional search to
// always meet (mirroring the undirected largest-component preprocessing of
// §V-A).
func LargestSCC(g *Digraph) (*Digraph, map[Node]Node) {
	kept := largestLabel(StronglyConnectedComponents(g))
	newID, remap := renumber(g.NumNodes(), kept)
	outOffsets, outAdj, _ := induce(g.OutOffsets, g.OutAdj, nil, kept, newID)
	inOffsets, inAdj, _ := induce(g.InOffsets, g.InAdj, nil, kept, newID)
	return &Digraph{OutOffsets: outOffsets, OutAdj: outAdj, InOffsets: inOffsets, InAdj: inAdj}, remap
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions (used for weak-connectivity preprocessing and comparisons).
func (g *Digraph) Underlying() *Graph {
	b := NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Successors(Node(v)) {
			b.AddEdge(Node(v), w)
		}
	}
	return b.Build()
}

package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Builder accumulates undirected edges and produces a canonical CSR Graph.
// Duplicate edges and self loops are silently dropped, matching how the
// paper's pipeline reads raw KONECT/SNAP edge lists ("all graphs were read
// as undirected and unweighted").
//
// Each edge is held as one packed integer key u<<s | v with u < v, where s
// is the bit length of n-1, so an edge costs 8 bytes and Build sorts plain
// integers over their 2s significant bits with a radix sort: no comparison
// sort, no per-list pass.
//
// Builder is not safe for concurrent use; a generator that produces edges
// in parallel adds them through AddConcurrently, which gives each worker
// its own range of the key array.
type Builder struct {
	n     int
	shift uint
	keys  []uint64
}

// NewBuilder returns a builder for a graph with n vertices (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, shift: keyShift(n)}
}

// keyShift is the bit length of the largest vertex ID of an n-vertex graph:
// the shift that packs an edge {u, v} into the key u<<shift | v.
func keyShift(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(n - 1)))
}

// AddEdge records the undirected edge {u, v}. Self loops are ignored.
// It panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v Node) {
	if k, ok := edgeKey(u, v, b.n, b.shift); ok {
		b.keys = append(b.keys, k)
	}
}

// edgeKey packs {u, v} as u<<shift | v with u < v, reporting false for a
// self loop. It panics if either endpoint is out of range for n vertices.
func edgeKey(u, v Node, n int, shift uint) (uint64, bool) {
	if int(u) >= n || int(v) >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, n))
	}
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<shift | uint64(v), u != v
}

// EdgeSink is one worker's share of a Builder's key array, handed out by
// AddConcurrently. Its AddEdge is Builder.AddEdge, range check and
// self-loop drop included, into a range no other worker writes.
type EdgeSink struct {
	keys  []uint64 // the kept edges; cap is the worker's whole range
	n     int
	shift uint
	_     [64]byte // a worker writes len(keys) per edge: no two sinks share a cache line
}

// AddEdge records the undirected edge {u, v}, as Builder.AddEdge does. It
// panics if the worker adds more edges than its range holds.
func (s *EdgeSink) AddEdge(u, v Node) {
	k, ok := edgeKey(u, v, s.n, s.shift)
	if !ok {
		return
	}
	if len(s.keys) == cap(s.keys) {
		panic("graph: EdgeSink holds no more edges than its range")
	}
	s.keys = append(s.keys, k)
}

// AddConcurrently adds up to m edges to b from workers goroutines. It
// splits the edge indexes [0, m) into workers contiguous chunks and calls
// produce(lo, hi, s) for each chunk on a goroutine of its own; produce adds
// at most hi-lo edges to s, which writes them straight into the chunk's
// range of b's key array. The ranges are then compacted, closing the gaps
// that dropped self loops leave. Build sorts the keys, so the graph is the
// one that adding the same edges with AddEdge in any order gives: the
// worker count changes the time, never the result.
func AddConcurrently(b *Builder, m, workers int, produce func(lo, hi int, s *EdgeSink)) {
	if m <= 0 {
		return
	}
	workers = max(1, min(workers, m))
	base := len(b.keys)
	b.keys = slices.Grow(b.keys, m)[:base+m]
	sinks := make([]EdgeSink, workers)
	var wg sync.WaitGroup
	for w := range sinks {
		lo, hi := m*w/workers, m*(w+1)/workers
		sinks[w] = EdgeSink{keys: b.keys[base+lo : base+lo : base+hi], n: b.n, shift: b.shift}
		wg.Add(1)
		go func(s *EdgeSink) {
			defer wg.Done()
			produce(lo, hi, s)
		}(&sinks[w])
	}
	wg.Wait()
	end := base
	for _, s := range sinks {
		end += copy(b.keys[end:], s.keys)
	}
	b.keys = b.keys[:end]
}

// Build produces the CSR graph, deduplicating edges. The builder keeps the
// sorted, deduplicated keys, so more edges may be added and Build called
// again.
func (b *Builder) Build() *Graph {
	SortKeys(b.keys, nil, 2*b.shift)
	b.keys = slices.Compact(b.keys)
	offsets, adj, _ := csr(b.n, b.shift, b.keys, nil)
	return &Graph{Offsets: offsets, Adj: adj}
}

// FromEdges builds a graph directly from an edge slice. Duplicates and self
// loops are removed. The input slice is not modified.
func FromEdges(n int, edges [][2]Node) *Graph {
	b := NewBuilder(n)
	b.keys = make([]uint64, 0, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// radixBits is the widest digit SortKeys uses: 2^11 counters stay in L1.
const radixBits = 11

// SortKeys sorts keys, each below 1<<keyBits, ascending in place, moving
// vals (nil, or one value per key) along with them. It is a radix sort over
// only those keyBits bits, in two stages:
//
//   - one in-place MSD pass (American flag sort) on the top digit splits
//     the keys into up to 2^11 buckets, with no scratch;
//   - stable LSD passes over the remaining bits finish each bucket, in
//     cache, through one scratch buffer as long as the largest bucket.
//
// So the sort adds no second copy of the keys: for an R-MAT graph the
// largest bucket holds a few percent of them, and only a single-bucket
// input (a star) needs a full-length scratch. Input that is already sorted,
// as a round-tripped edge list or a graph's own edges are, costs one scan.
//
// Every construction path sorts with it: the Builders here, and the runs
// of internal/bigio's out-of-core converter.
func SortKeys(keys []uint64, vals []uint32, keyBits uint) {
	if slices.IsSorted(keys) {
		return
	}
	top := min(keyBits, radixBits)
	rest := keyBits - top
	next, end := make([]int, 1<<top), make([]int, 1<<top)
	for _, k := range keys {
		end[k>>rest]++
	}
	sum, largest := 0, 0
	for d, c := range end {
		next[d] = sum
		sum += c
		end[d] = sum
		largest = max(largest, c)
	}
	// Fill bucket d slot by slot: lift the key out of its next slot and
	// follow the cycle of displaced keys until one belongs in d.
	for d := range next {
		for i := next[d]; i < end[d]; i = next[d] {
			k := keys[i]
			var val uint32
			if vals != nil {
				val = vals[i]
			}
			for e := int(k >> rest); e != d; e = int(k >> rest) {
				j := next[e]
				next[e]++
				keys[j], k = k, keys[j]
				if vals != nil {
					vals[j], val = val, vals[j]
				}
			}
			keys[i] = k
			if vals != nil {
				vals[i] = val
			}
			next[d]++
		}
	}
	if rest == 0 {
		return
	}
	tk := make([]uint64, largest)
	var tv []uint32
	if vals != nil {
		tv = make([]uint32, largest)
	}
	counts := make([]int, 1<<radixBits)
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			var bv []uint32
			if vals != nil {
				bv = vals[lo:hi]
			}
			sortBucket(keys[lo:hi], bv, tk, tv, rest, counts)
		}
		lo = hi
	}
}

// sortBucket sorts keys (and vals, when non-nil) by their low keyBits bits
// with stable LSD passes through the scratch tk/tv, leaving the result in
// keys. Digits are about log2(len(keys)) bits wide, so a small bucket does
// not pay for 2^11 counters per pass.
func sortBucket(keys []uint64, vals []uint32, tk []uint64, tv []uint32, keyBits uint, counts []int) {
	width := min(radixBits, uint(bits.Len(uint(len(keys)))))
	passes := (keyBits + width - 1) / width
	width = (keyBits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	src, dst := keys, tk[:len(keys)]
	sv, dv := vals, tv[:len(vals)]
	for p := uint(0); p < passes; p++ {
		shift := p * width
		pos := counts[:1<<width]
		clear(pos)
		for _, k := range src {
			pos[k>>shift&mask]++
		}
		if pos[src[0]>>shift&mask] == len(src) {
			continue // every key has this digit: the pass would be a copy
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for i, k := range src {
			d := k >> shift & mask
			dst[pos[d]] = k
			if vals != nil {
				dv[pos[d]] = sv[i]
			}
			pos[d]++
		}
		src, dst = dst, src
		sv, dv = dv, sv
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, sv)
	}
}

// csr lays out sorted, duplicate-free edge keys (u<<shift | v, u < v) as
// the CSR of an n-vertex undirected graph, with each arc carrying its
// edge's weight when w is non-nil.
//
// Every neighbour list comes out ascending without a sort. The keys are
// visited in ascending order, so for a vertex x all keys (u, x) with u < x
// arrive before every key (x, v) with v > x: x first receives its lower
// neighbours in ascending u, then its higher ones in ascending v.
func csr(n int, shift uint, keys []uint64, w []uint32) (offsets []uint64, adj []Node, aw []uint32) {
	// offsets[x+1] serves as x's write cursor and ends as x's end, which is
	// x+1's start; counting x's degree into offsets[x+2] makes the prefix
	// sum leave offsets[x+1] at x's start. One n+2 array, no cursor copy.
	offsets = make([]uint64, n+2)
	mask := uint64(1)<<shift - 1
	for _, k := range keys {
		offsets[k>>shift+2]++
		offsets[k&mask+2]++
	}
	for x := 2; x <= n; x++ {
		offsets[x] += offsets[x-1]
	}
	adj = make([]Node, 2*len(keys))
	if w != nil {
		aw = make([]uint32, len(adj))
	}
	for i, k := range keys {
		u, v := k>>shift, k&mask
		pu, pv := offsets[u+1], offsets[v+1]
		adj[pu], adj[pv] = Node(v), Node(u)
		if w != nil {
			aw[pu], aw[pv] = w[i], w[i]
		}
		offsets[u+1], offsets[v+1] = pu+1, pv+1
	}
	return offsets[:n+1], adj, aw
}

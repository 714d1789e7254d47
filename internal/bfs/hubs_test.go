package bfs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// star is vertex 0 joined to n-1 leaves: one vertex of high degree.
func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.Node(v))
	}
	return b.Build()
}

// checkHubs requires h to hold exactly the K = min(n, ⌊√(8m)⌋) vertices of
// highest degree in fwd plus bwd, ties to the lower ID, ranked by degree,
// and its arc test along each view to agree with a binary search of that
// view's list on every hub pair and on random pairs mixing hubs and others.
func checkHubs(t *testing.T, fwd, bwd *graph.Graph, m int, h *Hubs) {
	t.Helper()
	n := fwd.NumNodes()
	k := 0
	for (k+1)*(k+1) <= 8*m {
		k++
	}
	k = min(k, n)
	deg := func(v graph.Node) int { return fwd.Degree(v) + bwd.Degree(v) }
	byRank := make([]graph.Node, n)
	for v := range byRank {
		byRank[v] = graph.Node(v)
	}
	slices.SortStableFunc(byRank, func(a, b graph.Node) int { return cmp.Compare(deg(b), deg(a)) })
	hubs := byRank[:k]
	if int(h.k) != k {
		t.Fatalf("K = %d, want %d (n %d, m %d)", h.k, k, n, m)
	}
	for v := range n {
		if i := slices.Index(hubs, graph.Node(v)); h.row[v] != int32(i) {
			t.Fatalf("vertex %d (degree %d): row %d, want %d", v, deg(graph.Node(v)), h.row[v], i)
		}
	}

	search := func(g *graph.Graph, u, w graph.Node) bool {
		_, ok := slices.BinarySearch(g.Neighbors(u), w)
		return ok
	}
	check := func(u, w graph.Node) {
		if got, want := h.arc(fwd, bwd, false, u, w), search(fwd, u, w); got != want {
			t.Fatalf("fwd arc %d->%d: %v, binary search %v", u, w, got, want)
		}
		if got, want := h.arc(bwd, fwd, true, u, w), search(bwd, u, w); got != want {
			t.Fatalf("bwd arc %d->%d: %v, binary search %v", u, w, got, want)
		}
	}
	for _, u := range hubs {
		for _, w := range hubs {
			check(u, w)
		}
	}
	if n == 0 {
		return
	}
	r := rng.NewRand(uint64(n))
	pick := func() graph.Node {
		if k > 0 && r.Intn(2) == 0 {
			return hubs[r.Intn(k)]
		}
		return graph.Node(r.Intn(n))
	}
	for range 20_000 {
		check(pick(), pick())
	}
}

// TestHubsMatchBinarySearch: the hub matrix answers every arc test between
// two hubs as a binary search of the sorted lists does, in both view
// orientations, on power-law graphs, a digraph with arcs of mixed
// orientation, and the edge cases of one hub, no edges, and K = n.
func TestHubsMatchBinarySearch(t *testing.T) {
	for _, scale := range []int{10, 12} {
		g := rmatLCC(scale)
		t.Run(fmt.Sprintf("rmat%d", scale), func(t *testing.T) {
			checkHubs(t, g, g, g.NumEdges(), NewHubs(g))
		})
	}
	t.Run("rmatDigraph", func(t *testing.T) {
		d := mixedOrientation(rmatLCC(12), 9)
		out, in := views(d)
		checkHubs(t, out, in, d.NumArcs(), NewDirectedHubs(d))
	})
	t.Run("star", func(t *testing.T) {
		g := star(100)
		checkHubs(t, g, g, g.NumEdges(), NewHubs(g))
	})
	t.Run("edgeless", func(t *testing.T) {
		g := graph.NewBuilder(10).Build()
		h := NewHubs(g)
		if h.k != 0 {
			t.Fatalf("K = %d on an edgeless graph", h.k)
		}
		checkHubs(t, g, g, 0, h)
	})
	t.Run("allHubs", func(t *testing.T) {
		g := randomGraph(rng.NewRand(3), 12)
		h := NewHubs(g)
		if int(h.k) != g.NumNodes() {
			t.Fatalf("K = %d on %d vertices and %d edges, want every vertex", h.k, g.NumNodes(), g.NumEdges())
		}
		checkHubs(t, g, g, g.NumEdges(), h)
	})
}

// TestSampleDigest pins the production sample stream: 10^5 samples from
// NewSampler(rmatLCC(scale), ..., rng.NewRand(5)), hashed with FNV-64a (each
// internal vertex as 4 little-endian bytes, 0x09 for an unreachable pair,
// 0x07 after every sample). The values are the expand-and-binary-search
// kernel's, before the hub matrix and the packed per-vertex record.
func TestSampleDigest(t *testing.T) {
	for _, c := range []struct {
		scale int
		want  uint64
	}{{12, 0x741a93e5a9153a8a}, {16, 0x4009c0f0f0994a96}} {
		t.Run(fmt.Sprintf("rmat%d", c.scale), func(t *testing.T) {
			g := rmatLCC(c.scale)
			sp := NewSampler(g, NewHubs(g), rng.NewRand(5))
			h := fnv.New64a()
			var b [4]byte
			for range 100_000 {
				internal, ok := sp.Sample()
				for _, v := range internal {
					binary.LittleEndian.PutUint32(b[:], v)
					h.Write(b[:])
				}
				if !ok {
					h.Write([]byte{0x09})
				}
				h.Write([]byte{0x07})
			}
			if got := h.Sum64(); got != c.want {
				t.Fatalf("digest %016x, want %016x", got, c.want)
			}
		})
	}
}

// BenchmarkNewHubs builds the hub matrix of the benchmark workloads' R-MAT
// graphs, once per graph in a workload's first sampler: scale 12 is
// small-tcp2's and daemon-session's, scale 16 social-shm's.
func BenchmarkNewHubs(b *testing.B) {
	for _, scale := range []int{12, 16} {
		g := rmatLCC(scale)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for b.Loop() {
				NewHubs(g)
			}
		})
	}
}

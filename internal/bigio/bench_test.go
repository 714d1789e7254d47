package bigio

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// benchEdges drives a deterministic splitmix64 edge stream so converter
// and builder benchmarks ingest the identical graph without importing the
// generator packages.
func benchEdges(n, m int, emit func(u, v graph.Node)) {
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < m; i++ {
		u := graph.Node(next() % uint64(n))
		v := graph.Node(next() % uint64(n))
		emit(u, v)
	}
}

func benchBuild(n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	benchEdges(n, m, func(u, v graph.Node) { b.AddEdge(u, v) })
	return b.Build()
}

const (
	benchNodes = 1 << 16
	benchEdgeN = 1 << 19
)

// BenchmarkIngestConvert measures the out-of-core converter end to end:
// external sort, k-way merge, streamed BCSR v2 write. bytes/op is the
// raw edge-stream volume (16 packed bytes per input edge), so MB/s is
// ingest throughput.
func BenchmarkIngestConvert(b *testing.B) {
	dir := b.TempDir()
	b.SetBytes(int64(benchEdgeN) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(dir, "bench.bcsr")
		c, err := NewConverter(out, ConvertOptions{MemBytes: 8 << 20, NumNodes: benchNodes})
		if err != nil {
			b.Fatal(err)
		}
		benchEdges(benchNodes, benchEdgeN, func(u, v graph.Node) {
			if err := c.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		})
		if _, err := c.Finish(); err != nil {
			b.Fatal(err)
		}
		c.Close()
		os.Remove(out)
	}
}

// BenchmarkIngestOpen measures the O(1)-in-edges mmap open: a header
// parse plus the offsets monotonicity scan.
func BenchmarkIngestOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.bcsr")
	if err := WriteFile(path, benchBuild(benchNodes, benchEdgeN), WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkIngestScan measures adjacency traversal throughput — the
// sampler's memory-access pattern — over the mapped graph versus the
// heap CSR, pinning the cost (if any) of serving samplers straight off
// the page cache.
func BenchmarkIngestScan(b *testing.B) {
	g := benchBuild(benchNodes, benchEdgeN)
	path := filepath.Join(b.TempDir(), "bench.bcsr")
	if err := WriteFile(path, g, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	scan := func(b *testing.B, g *graph.Graph) {
		b.SetBytes(int64(len(g.Adj)) * 4)
		b.ResetTimer()
		var sink graph.Node
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.NumNodes(); v++ {
				for _, w := range g.Neighbors(graph.Node(v)) {
					sink += w
				}
			}
		}
		if sink == 1 {
			b.Log("unlikely") // keep the sum live
		}
	}
	b.Run("mapped", func(b *testing.B) { scan(b, m.Graph()) })
	b.Run("heap", func(b *testing.B) { scan(b, g) })
}

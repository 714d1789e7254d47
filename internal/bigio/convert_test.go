package bigio

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/memprof"
)

// TestConverterBitIdentical is the property test the format hinges on:
// for the same edge list, the streaming converter's file is byte-for-byte
// what Write produces from the in-memory Builder — across sort-buffer
// sizes from comfortable down to the pathological one-edge buffer that
// spills a run per edge and forces multi-pass merging. Besides a random
// multigraph, two inputs steer the runs' radix sort (graph.SortKeys): a
// star puts half of every run in its hub's top-digit bucket, so the sort
// needs its largest scratch, and a path streamed in order arrives sorted
// and takes the sort's already-sorted exit.
func TestConverterBitIdentical(t *testing.T) {
	const n, m = 300, 2000
	rng := rand.New(rand.NewSource(42))
	var random, star, path [][2]graph.Node
	for i := 0; i < m; i++ {
		random = append(random, [2]graph.Node{graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))})
	}
	// Duplicates, reversed duplicates, and self loops, all of which the
	// Builder drops and the merge must drop identically.
	random = append(random, random[:50]...)
	for i := 0; i < 30; i++ {
		random = append(random, [2]graph.Node{random[i][1], random[i][0]})
	}
	for i := 0; i < 10; i++ {
		random = append(random, [2]graph.Node{graph.Node(i), graph.Node(i)})
	}
	for v := 1; v < n; v++ {
		star = append(star, [2]graph.Node{0, graph.Node(v)})
		path = append(path, [2]graph.Node{graph.Node(v - 1), graph.Node(v)})
	}

	for _, input := range []struct {
		name  string
		edges [][2]graph.Node
	}{{"random", random}, {"star", star}, {"sorted", path}} {
		want := graph.FromEdges(n, input.edges)
		var ref bytes.Buffer
		if err := Write(&ref, want, WriteOptions{}); err != nil {
			t.Fatalf("Write: %v", err)
		}
		// 16 bytes = 2 packed entries = exactly one edge per run.
		for _, memBytes := range []int64{16, 64, 4 << 10, 0 /* default */} {
			t.Run(fmt.Sprintf("%s/mem=%d", input.name, memBytes), func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "out.bcsr")
				c, err := NewConverter(out, ConvertOptions{
					MemBytes: memBytes,
					NumNodes: n,
					MaxFanIn: 4, // force multi-pass merges at small buffers
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for _, e := range input.edges {
					if err := c.AddEdge(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
				stats, err := c.Finish()
				if err != nil {
					t.Fatalf("Finish: %v", err)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref.Bytes()) {
					t.Fatalf("converter output differs from Write: %d vs %d bytes", len(got), ref.Len())
				}
				if stats.Edges != uint64(want.NumEdges()) {
					t.Errorf("stats.Edges = %d, want %d", stats.Edges, want.NumEdges())
				}
				if memBytes == 16 && stats.MergePasses == 0 {
					t.Errorf("one-edge buffer produced %d runs but no merge passes", stats.Runs)
				}
				m2, err := Open(out)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer m2.Close()
				sameGraph(t, m2.Graph(), want)
			})
		}
	}
}

// TestConvertEdgeList pins the text front end to ReadEdgeList's interning:
// same dense renumbering, so the converted file equals the heap-loaded
// graph serialized by Write.
func TestConvertEdgeList(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# comment line\n% another comment\n\n")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		// Sparse raw IDs exercise the interner.
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(100)*1000, rng.Intn(100)*1000)
	}
	input := sb.String()

	want, err := graph.ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := Write(&ref, want, WriteOptions{}); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "out.bcsr")
	stats, err := ConvertEdgeList(strings.NewReader(input), out, ConvertOptions{MemBytes: 1 << 10})
	if err != nil {
		t.Fatalf("ConvertEdgeList: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("ConvertEdgeList output differs from ReadEdgeList+Write: %d vs %d bytes", len(got), ref.Len())
	}
	if stats.Nodes != want.NumNodes() {
		t.Errorf("stats.Nodes = %d, want %d", stats.Nodes, want.NumNodes())
	}
}

func TestConverterErrors(t *testing.T) {
	dir := t.TempDir()
	t.Run("node-out-of-range", func(t *testing.T) {
		c, err := NewConverter(filepath.Join(dir, "a.bcsr"), ConvertOptions{NumNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.AddEdge(0, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(); err == nil {
			t.Fatal("Finish accepted an out-of-range edge")
		}
	})
	t.Run("double-finish", func(t *testing.T) {
		c, err := NewConverter(filepath.Join(dir, "b.bcsr"), ConvertOptions{NumNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(); err == nil {
			t.Fatal("second Finish did not error")
		}
	})
	t.Run("bad-text", func(t *testing.T) {
		_, err := ConvertEdgeList(strings.NewReader("1 two\n"), filepath.Join(dir, "c.bcsr"), ConvertOptions{})
		if err == nil {
			t.Fatal("ConvertEdgeList accepted a non-numeric field")
		}
	})
	t.Run("oversized-budget", func(t *testing.T) {
		phys := memprof.PhysicalMemory()
		if phys == 0 {
			t.Skip("physical memory unknown on this platform")
		}
		tmp := t.TempDir()
		_, err := NewConverter(filepath.Join(tmp, "big.bcsr"), ConvertOptions{MemBytes: int64(phys) + 1})
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("NewConverter with a budget above physical memory: error %v", err)
		}
		if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
			t.Errorf("rejected conversion left %d entries in its directory", len(entries))
		}
	})
	t.Run("no-torn-output", func(t *testing.T) {
		// An aborted conversion must leave nothing at the output path.
		out := filepath.Join(dir, "torn.bcsr")
		c, err := NewConverter(out, ConvertOptions{NumNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddEdge(0, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(); err == nil {
			t.Fatal("expected Finish error")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("aborted conversion left output at %s", out)
		}
	})
}

// TestConverterScratchCleanup checks Close removes the run directory.
func TestConverterScratchCleanup(t *testing.T) {
	dir := t.TempDir()
	c, err := NewConverter(filepath.Join(dir, "g.bcsr"), ConvertOptions{NumNodes: 10, MemBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := c.AddEdge(graph.Node(i), graph.Node(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.bcsr" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("scratch not cleaned up, dir has %v", names)
	}
}

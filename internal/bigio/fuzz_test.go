package bigio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// addImageSeeds seeds a BCSR v2 decoder fuzzer: a valid image, its
// truncations, a corrupted adjacency byte, header edits with the CRC fixed
// up so the checks behind it run, the empty and the edgeless graph, and
// bytes that are no image at all.
func addImageSeeds(f *testing.F) {
	image := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteOptions{}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := image(graph.FromEdges(6, [][2]graph.Node{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}))
	edit := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mutate(b)
		return b
	}
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)/2])
	f.Add(edit(func(b []byte) { b[pageSize+3] ^= 0xff }))
	f.Add(edit(func(b []byte) { b[24] |= 1; rewriteCRC(b) })) // the removed compressed variant
	f.Add(edit(func(b []byte) { b[24] |= 2; rewriteCRC(b) })) // unknown flag
	f.Add(edit(func(b []byte) { b[72] = 1; rewriteCRC(b) }))  // reserved byte
	f.Add(edit(func(b []byte) { b[16]++; rewriteCRC(b) }))    // numAdj off by one
	f.Add(edit(func(b []byte) { b[40] += 8; rewriteCRC(b) })) // offsets length
	f.Add(edit(func(b []byte) { b[0] = 1; rewriteCRC(b) }))   // BCSR v1 magic
	f.Add(image(graph.FromEdges(0, nil)))
	f.Add(image(graph.FromEdges(10, nil)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerSize))
}

// traverse slices every adjacency list of an accepted graph: the offsets
// monotonicity check must bound every Neighbors call.
func traverse(g *graph.Graph) {
	for v := 0; v < g.NumNodes(); v++ {
		_ = g.Neighbors(graph.Node(v))
	}
}

// FuzzOpen feeds arbitrary bytes to the mapped opener. The contract under
// test: Open either succeeds on a structurally valid file or returns an
// error — it must never panic, fault, or over-allocate, whatever the
// header claims. Successful opens must serve a traversable graph.
func FuzzOpen(f *testing.F) {
	addImageSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bcsr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		m, err := Open(path)
		if err != nil {
			return
		}
		defer m.Close()
		traverse(m.Graph())
	})
}

// FuzzFromBytes is FuzzOpen's contract over the in-memory decoder, the
// daemon's upload path: the same header and offsets checks without a file
// or a mapping per input, so it runs many times more inputs a second.
func FuzzFromBytes(f *testing.F) {
	addImageSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromBytes(data)
		if err != nil {
			return
		}
		traverse(g)
	})
}

// FuzzConvertEdgeList pushes arbitrary text through the streaming
// converter: it must either produce a file the opener accepts or error
// cleanly, never panic.
func FuzzConvertEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# header\n5 5\n5 6\n")
	f.Add("")
	f.Add("1 2 3 4\n")
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, input string) {
		out := filepath.Join(t.TempDir(), "out.bcsr")
		_, err := ConvertEdgeList(bytes.NewReader([]byte(input)), out, ConvertOptions{MemBytes: 256})
		if err != nil {
			return
		}
		m, err := Open(out)
		if err != nil {
			t.Fatalf("converter wrote a file Open rejects: %v", err)
		}
		m.Close()
	})
}

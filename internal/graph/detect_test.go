package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDetectFormatText(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  Format
	}{
		{"edge list bare", "0 1\n1 2\n", FormatEdgeList},
		{"edge list header", "# undirected graph: 3 nodes, 2 edges\n0 1\n1 2\n", FormatEdgeList},
		{"arc list header", "# directed graph: 3 nodes, 3 arcs\n0 1\n1 2\n2 0\n", FormatArcList},
		{"weighted bare", "0 1 5\n1 2 7\n", FormatWeightedEdgeList},
		{"weighted header", "# weighted undirected graph: 3 nodes, 2 edges\n0 1 5\n", FormatWeightedEdgeList},
		{"comments then data", "% konect style\n% more\n4 7\n", FormatEdgeList},
		{"blank lines", "\n\n  \n0 1\n", FormatEdgeList},
		{"empty", "", FormatUnknown},
		{"comments only", "# nothing here\n", FormatUnknown},
		{"garbage", "hello world\n", FormatUnknown},
		{"one field", "42\n", FormatUnknown},
		{"non-numeric third", "0 1 x\n", FormatUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, r, err := DetectFormat(strings.NewReader(tc.input))
			if err != nil {
				t.Fatalf("DetectFormat: %v", err)
			}
			if got != tc.want {
				t.Fatalf("DetectFormat = %v, want %v", got, tc.want)
			}
			// The returned reader must replay the whole input.
			replay, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if string(replay) != tc.input {
				t.Fatalf("replay = %q, want %q", replay, tc.input)
			}
		})
	}
}

func TestDetectFormatBCSR(t *testing.T) {
	g := FromEdges(3, [][2]Node{{0, 1}, {1, 2}})
	format, r, err := DetectFormat(bytes.NewReader(v1Image(g)))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatBCSR {
		t.Fatalf("DetectFormat = %v, want %v", format, FormatBCSR)
	}
	got, err := ReadBinary(r)
	if err != nil {
		t.Fatalf("ReadBinary after detect: %v", err)
	}
	if got.NumNodes() != 3 || got.NumEdges() != 2 {
		t.Fatalf("round trip: %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
}

// The writers' own output must round-trip through detection: this is the
// contract that lets the upload path and the CLIs drop explicit format
// flags for files this repository produced.
func TestDetectFormatWriterRoundTrip(t *testing.T) {
	und := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	dig := FromArcs(3, [][2]Node{{0, 1}, {1, 2}, {2, 0}})
	wg, err := FromWeightedEdges(3, []WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}

	var b1, b2, b3 bytes.Buffer
	if err := WriteEdgeList(&b1, und); err != nil {
		t.Fatal(err)
	}
	if err := WriteArcList(&b2, dig); err != nil {
		t.Fatal(err)
	}
	if err := WriteWeightedEdgeList(&b3, wg); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want Format
	}{
		{"WriteEdgeList", b1.Bytes(), FormatEdgeList},
		{"WriteArcList", b2.Bytes(), FormatArcList},
		{"WriteWeightedEdgeList", b3.Bytes(), FormatWeightedEdgeList},
	} {
		format, _, err := DetectFormat(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if format != tc.want {
			t.Fatalf("%s: detected %v, want %v", tc.name, format, tc.want)
		}
	}
}

func TestDetectFormatFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	format, err := DetectFormatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatWeightedEdgeList {
		t.Fatalf("DetectFormatFile = %v, want %v", format, FormatWeightedEdgeList)
	}
	// Empty ".bcsr" falls back to the extension.
	empty := filepath.Join(dir, "empty.bcsr")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	format, err = DetectFormatFile(empty)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatBCSR {
		t.Fatalf("DetectFormatFile(empty .bcsr) = %v, want %v", format, FormatBCSR)
	}
}

func TestDigestStability(t *testing.T) {
	// Structurally identical graphs hash identically regardless of edge
	// input order; different structure or kind changes the digest.
	a := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	b := FromEdges(4, [][2]Node{{2, 3}, {1, 2}, {0, 1}})
	if a.Digest() != b.Digest() {
		t.Fatalf("edge order changed the digest: %s vs %s", a.Digest(), b.Digest())
	}
	c := FromEdges(4, [][2]Node{{0, 1}, {1, 2}, {0, 3}})
	if a.Digest() == c.Digest() {
		t.Fatal("different graphs collided")
	}
	if !strings.HasPrefix(a.Digest(), "sha256:") {
		t.Fatalf("digest %q lacks the sha256: prefix", a.Digest())
	}

	d := FromArcs(4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	if d.Digest() == a.Digest() {
		t.Fatal("directed and undirected digests collided (no domain separation)")
	}

	w1, err := FromWeightedEdges(3, []WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := FromWeightedEdges(3, []WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Digest() == w2.Digest() {
		t.Fatal("weight change did not change the digest")
	}
}

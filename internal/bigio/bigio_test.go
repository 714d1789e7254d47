package bigio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
)

// testGraph builds a deterministic random graph with n vertices and
// about m edges (duplicates and self loops fed in on purpose — the
// Builder drops them, and so must every writer under test).
func testGraph(t *testing.T, n, m, seed int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	edges := make([][2]graph.Node, 0, m)
	for i := 0; i < m; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		edges = append(edges, [2]graph.Node{u, v})
		if i%7 == 0 { // duplicate some edges
			edges = append(edges, [2]graph.Node{v, u})
		}
	}
	return graph.FromEdges(n, edges)
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("offsets differ: got %d entries, want %d", len(got.Offsets), len(want.Offsets))
	}
	if !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("adjacency differs: got %d entries, want %d", len(got.Adj), len(want.Adj))
	}
}

func TestRoundTrip(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		g := testGraph(t, 500, 3000, 1)
		path := filepath.Join(t.TempDir(), "g.bcsr")
		if err := WriteFile(path, g, WriteOptions{}); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		m, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer m.Close()
		sameGraph(t, m.Graph(), g)
		if err := m.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
}

func TestRoundTripEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.FromEdges(0, nil)},
		{"isolated", graph.FromEdges(10, nil)},
		{"one-edge", graph.FromEdges(2, [][2]graph.Node{{0, 1}})},
		{"tail-isolated", graph.FromEdges(9, [][2]graph.Node{{0, 1}, {1, 2}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.bcsr")
			if err := WriteFile(path, tc.g, WriteOptions{}); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			m, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer m.Close()
			sameGraph(t, m.Graph(), tc.g)
		})
	}
}

func TestZeroCopy(t *testing.T) {
	g := testGraph(t, 100, 400, 2)
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := WriteFile(path, g, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && hostLittleEndian && !m.ZeroCopy() {
		t.Error("open on an mmap-capable little-endian host should be zero-copy")
	}
}

func TestCloseIdempotentAndEmpties(t *testing.T) {
	g := testGraph(t, 50, 200, 3)
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := WriteFile(path, g, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mg := m.Graph()
	if mg.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", mg.NumNodes(), g.NumNodes())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// After Close the served graph is empty, so stale users fail loudly
	// (zero vertices) instead of touching unmapped pages.
	if mg.NumNodes() != 0 {
		t.Errorf("graph after Close has %d nodes, want 0", mg.NumNodes())
	}
}

func TestVersionSkew(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 20, 60, 4)

	// A v1 file refused by the v2 opener, with the typed error.
	v1 := filepath.Join(dir, "v1.bcsr")
	var image bytes.Buffer // the v1 layout: header, offsets, adjacency; nothing writes it any more
	for _, section := range []any{
		[]uint64{graph.BCSRMagic(1), uint64(g.NumNodes()), uint64(len(g.Adj))}, g.Offsets, g.Adj,
	} {
		if err := binary.Write(&image, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(v1, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1); !errors.Is(err, graph.ErrBCSRVersion) {
		t.Errorf("Open(v1) error = %v, want ErrBCSRVersion", err)
	}

	// A v2 file refused by the v1 reader, with the typed error.
	v2 := filepath.Join(dir, "v2.bcsr")
	if err := WriteFile(v2, g, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if _, err := graph.ReadBinary(rf); !errors.Is(err, graph.ErrBCSRVersion) {
		t.Errorf("ReadBinary(v2) error = %v, want ErrBCSRVersion", err)
	}

	// DetectFormat distinguishes the two and flags unknown versions.
	if format, err := graph.DetectFormatFile(v1); err != nil || format != graph.FormatBCSR {
		t.Errorf("DetectFormatFile(v1) = %v, %v; want FormatBCSR", format, err)
	}
	if format, err := graph.DetectFormatFile(v2); err != nil || format != graph.FormatBCSR2 {
		t.Errorf("DetectFormatFile(v2) = %v, %v; want FormatBCSR2", format, err)
	}
	v9 := filepath.Join(dir, "v9.bcsr")
	raw, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] = 9 // magic version byte (little-endian low byte)
	if err := os.WriteFile(v9, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var vErr *graph.BCSRVersionError
	if _, err := graph.DetectFormatFile(v9); !errors.As(err, &vErr) || vErr.Version != 9 {
		t.Errorf("DetectFormatFile(v9) error = %v, want BCSRVersionError{Version: 9}", err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 64, 256, 5)
	path := filepath.Join(dir, "g.bcsr")
	if err := WriteFile(path, g, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := mutate(slices.Clone(raw))
			p := filepath.Join(dir, name+".bcsr")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(p); err == nil {
				t.Fatal("Open accepted a corrupt file")
			}
		})
	}

	check("truncated-header", func(b []byte) []byte { return b[:40] })
	check("truncated-body", func(b []byte) []byte { return b[:len(b)/2] })
	check("flipped-header-bit", func(b []byte) []byte { b[16] ^= 0x40; return b }) // numAdj, CRC catches it
	check("implausible-n", func(b []byte) []byte {
		// Rewrite numNodes to 2^50 and fix the CRC so only the
		// plausibility check can object.
		for i := 8; i < 16; i++ {
			b[i] = 0
		}
		b[14] = 0x04 // 1<<50
		return rewriteCRC(b)
	})
	check("unaligned-section", func(b []byte) []byte {
		b[32] = 0x10 // offsets offset 4096 -> 4112... not page aligned
		return rewriteCRC(b)
	})
	check("compressed-flag", func(b []byte) []byte { b[24] |= 1; return rewriteCRC(b) })
	check("unknown-flag", func(b []byte) []byte { b[24] |= 2; return rewriteCRC(b) })
	check("reserved-header-bytes", func(b []byte) []byte { b[80] = 1; return rewriteCRC(b) })
	check("nonmonotone-offsets", func(b []byte) []byte {
		// Swap two offset words in the offsets section.
		copy(b[pageSize+8:pageSize+16], []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
		return b
	})
}

// rewriteCRC recomputes the header CRC after a deliberate header edit, so
// tests exercise the checks behind the checksum.
func rewriteCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[92:], crc32.ChecksumIEEE(b[:92]))
	return b
}

// TestWriteAtomic: a completed write replaces the file with mode 0644; a
// failed write, fsync or rename keeps the old bytes and leaves no temp
// file; a beforeRename error leaves the complete temp file behind, as a
// crash between the fsync and the rename would.
func TestWriteAtomic(t *testing.T) {
	errWrite, errHook := errors.New("write failed"), errors.New("crash")
	payload := func(w io.Writer) error { _, err := w.Write([]byte("new")); return err }
	for _, tc := range []struct {
		name     string
		write    func(io.Writer) error
		hook     func() error
		occupied bool // a non-empty directory stands at the path, so the rename fails
		want     string
		tmp      string
	}{
		{name: "ok", write: payload, want: "new"},
		{name: "write error", write: func(w io.Writer) error { payload(w); return errWrite }, want: "old"},
		// Closing the file under the helper makes its fsync fail.
		{name: "fsync error", write: func(w io.Writer) error { payload(w); return w.(*os.File).Close() }, want: "old"},
		{name: "rename error", write: payload, occupied: true},
		{name: "crash before rename", write: payload, hook: func() error { return errHook }, want: "old", tmp: "new"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			if tc.occupied {
				if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
				t.Fatal(err)
			}
			err := WriteAtomic(path, tc.write, tc.hook)
			if (err == nil) != (tc.name == "ok") || tc.hook != nil && !errors.Is(err, errHook) {
				t.Fatalf("WriteAtomic returned %v", err)
			}
			if !tc.occupied {
				if got, _ := os.ReadFile(path); string(got) != tc.want {
					t.Errorf("file holds %q, want %q", got, tc.want)
				}
			}
			if tc.name == "ok" {
				if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644&^umask(t) {
					t.Errorf("file mode %v (%v), want 0644 under the umask", fi.Mode().Perm(), err)
				}
			}
			got, err := os.ReadFile(path + ".tmp")
			switch {
			case tc.tmp == "" && !errors.Is(err, os.ErrNotExist):
				t.Errorf("temp file left behind: %q, %v", got, err)
			case tc.tmp != "" && string(got) != tc.tmp:
				t.Errorf("temp file holds %q (%v), want the complete %q", got, err, tc.tmp)
			}
		})
	}
}

// umask reads the process umask from a file created with mode 0777.
func umask(t *testing.T) os.FileMode {
	path := filepath.Join(t.TempDir(), "probe")
	if err := os.WriteFile(path, nil, 0o777); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return 0o777 &^ fi.Mode().Perm()
}

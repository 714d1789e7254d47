package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/bigio"
)

// v1Image returns the upload graph in the BCSR v1 layout (header, offsets,
// adjacency), which the daemon no longer reads.
func v1Image(t *testing.T) []byte {
	t.Helper()
	g, err := graph.ReadEdgeList(bytes.NewReader(testGraphBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	for _, section := range []any{
		[]uint64{0x42435352<<32 | 1 /* "BCSR", version 1 */, uint64(g.NumNodes()), uint64(len(g.Adj))}, g.Offsets, g.Adj,
	} {
		if err := binary.Write(&image, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	return image.Bytes()
}

func TestUploadBCSRv1Refused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := do(t, "POST", ts.URL+"/graphs?name=old", v1Image(t))
	if code != http.StatusBadRequest {
		t.Fatalf("v1 upload: status %d, want 400 (resp %v)", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "graphconv") {
		t.Errorf("v1 upload error %q does not name graphconv", msg)
	}
}

// A BCSR v2 file of the retired compressed variant (flag bit 0, valid CRC)
// is refused at its header on every way in — the mapped opener, the byte
// decoder, graph.LoadFile and a daemon upload — with the re-convert fix,
// and the three loaders allocate nothing the size of its adjacency.
func TestCompressedBCSRRefused(t *testing.T) {
	g := graph.RMAT(graph.Graph500(14, 8, 1)) // 1 MiB of adjacency, against 64 KiB of format sniffing
	var buf bytes.Buffer
	if err := graph.WriteBCSR2(&buf, g, graph.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	image[24] |= 1 // flags: compressed
	binary.LittleEndian.PutUint32(image[92:], crc32.ChecksumIEEE(image[:92]))
	path := filepath.Join(t.TempDir(), "old.bcsr")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	adjBytes := uint64(len(g.Adj)) * 4
	for name, load := range map[string]func() error{
		"bigio.Open":      func() error { _, err := bigio.Open(path); return err },
		"bigio.FromBytes": func() error { _, err := bigio.FromBytes(image); return err },
		"graph.LoadFile":  func() error { _, err := graph.LoadFile(path); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		var fe *bigio.FormatError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), "graphconv") {
			t.Errorf("%s: error %v, want a FormatError naming graphconv", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= adjBytes/4 {
			t.Errorf("%s allocated %d bytes rejecting a file with %d bytes of adjacency", name, alloc, adjBytes)
		}
	}

	_, ts := newTestServer(t, Config{})
	code, resp := do(t, "POST", ts.URL+"/graphs?name=old", image)
	if code != http.StatusBadRequest {
		t.Fatalf("compressed upload: status %d, want 400 (resp %v)", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "graphconv") {
		t.Errorf("compressed upload error %q does not name graphconv", msg)
	}
}

// A store written before BCSR v2 holds v1 graph files: startup quarantines
// the entry, with a reason that names graphconv, instead of loading it.
func TestStoreBCSRv1Quarantined(t *testing.T) {
	dataDir := t.TempDir()
	srvA, tsA := newTestServer(t, Config{DataDir: dataDir})
	uploadGraph(t, tsA.URL, "g", testGraphBytes(t))
	tsA.Close()
	srvA.Drain(t.Context())
	if err := os.WriteFile(filepath.Join(dataDir, "graphs", "g.graph"), v1Image(t), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	_, tsB := newTestServer(t, Config{DataDir: dataDir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if code, _ := do(t, "GET", tsB.URL+"/graphs/g", nil); code != http.StatusNotFound {
		t.Fatalf("v1 graph served after restart: status %d", code)
	}
	q := quarantineEntries(t, dataDir)
	if !slices.Contains(q, "g.json") || !slices.Contains(q, "g.graph") {
		t.Fatalf("quarantine holds %v, want g.json and g.graph", q)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool {
		return strings.Contains(l, "quarantined") && strings.Contains(l, "g.json") && strings.Contains(l, "graphconv")
	}) {
		t.Errorf("no quarantine log line naming graphconv in %q", logs)
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/graph"
)

// graphconv is the one reader of BCSR v1 left: it rewrites a v1 file as a
// v2 file that opens by mmap and holds the same CSR.
func TestConvertBCSRv1(t *testing.T) {
	g := graph.RMAT(graph.Graph500(7, 8, 3))
	var image bytes.Buffer // the v1 layout: header, offsets, adjacency
	for _, section := range []any{
		[]uint64{0x42435352<<32 | 1 /* "BCSR", version 1 */, uint64(g.NumNodes()), uint64(len(g.Adj))}, g.Offsets, g.Adj,
	} {
		if err := binary.Write(&image, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "old.bcsr"), filepath.Join(dir, "new.bcsr")
	if err := os.WriteFile(in, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := convert(in, out, graph.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != g.NumNodes() || stats.Edges != uint64(g.NumEdges()) {
		t.Errorf("stats %d nodes %d edges, want %d, %d", stats.Nodes, stats.Edges, g.NumNodes(), g.NumEdges())
	}
	m, err := graph.OpenMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Graph(); !slices.Equal(got.Offsets, g.Offsets) || !slices.Equal(got.Adj, g.Adj) {
		t.Error("the v2 file does not hold the v1 file's CSR")
	}
}

// A BCSR v2 file is already the output format: graphconv refuses it as
// input instead of copying it.
func TestConvertRefusesBCSR2(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "g.bcsr"), filepath.Join(dir, "copy.bcsr")
	if err := graph.SaveFile(in, graph.RMAT(graph.Graph500(6, 8, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := convert(in, out, graph.ConvertOptions{}); err == nil || !strings.Contains(err.Error(), "already BCSR v2") {
		t.Fatalf("convert(v2) error = %v, want one saying the input is already BCSR v2", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("refused conversion left output at %s", out)
	}
}

package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
)

// This file implements two interchange formats:
//
//   - Text edge lists, compatible with the SNAP/KONECT style the paper's
//     pipeline consumes: one "u v" pair per line, '#' and '%' comment lines
//     ignored, arbitrary whitespace. Vertex IDs are remapped densely.
//   - A binary CSR snapshot ("BCSR") that loads in O(read) without
//     rebuilding, for the large generated instances used by the benchmarks.

// ReadEdgeList parses a SNAP/KONECT-style text edge list. IDs found in the
// file are densely renumbered in order of first appearance.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	ids := make(interner)
	var edges [][2]Node
	err := lineScanner(r, func(line int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, [2]Node{ids.intern(u), ids.intern(v)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromEdges(len(ids), edges), nil
}

// WriteEdgeList writes g as a text edge list with a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# undirected graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	var err error
	g.ForEdges(func(u, v Node) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// bcsrMagic is the magic word of BCSR version 1, the heap-loaded format
// this file still reads (three little-endian uint64 — magic, n, len(adj) —
// then the n+1 uint64 offsets and the uint32 adjacency). Nothing in the
// program writes it any more: version 2 (page-aligned sections, opened by
// mmap) lives in internal/bigio and is what every writer emits; see
// BCSRMagic for the shared magic scheme.
var bcsrMagic = BCSRMagic(1)

// ReadBinary reads a BCSR v1 binary graph and validates its structure.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]uint64, 3)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("graph: reading BCSR header: %w", err)
	}
	if hdr[0] != bcsrMagic {
		if uint32(hdr[0]>>32) == bcsrMagicPrefix {
			// A BCSR file of another version: report the skew as such.
			return nil, &BCSRVersionError{
				Version: hdr[0] & 0xffffffff,
				Hint:    "ReadBinary reads v1 only; v2 opens via LoadFile or the mapped loader",
			}
		}
		return nil, fmt.Errorf("graph: bad BCSR magic %#x", hdr[0])
	}
	n, m2 := hdr[1], hdr[2]
	const maxReasonable = 1 << 40
	if n > maxReasonable || m2 > maxReasonable {
		return nil, fmt.Errorf("graph: implausible BCSR sizes n=%d adj=%d", n, m2)
	}
	g := &Graph{
		Offsets: make([]uint64, n+1),
		Adj:     make([]Node, m2),
	}
	if err := binary.Read(br, binary.LittleEndian, g.Offsets); err != nil {
		return nil, fmt.Errorf("graph: reading BCSR offsets: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, g.Adj); err != nil {
		return nil, fmt.Errorf("graph: reading BCSR adjacency: %w", err)
	}
	// Cheap structural checks (full Validate is O(E log E); do bounds only).
	if g.Offsets[0] != 0 || g.Offsets[n] != m2 {
		return nil, fmt.Errorf("graph: corrupt BCSR offsets")
	}
	for v := uint64(0); v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return nil, fmt.Errorf("graph: non-monotone BCSR offsets at %d", v)
		}
	}
	return g, nil
}

// LoadFile loads a text edge list from path. (Binary files route through
// repro/graph.LoadFile, which opens BCSR v2 by mmap and refuses v1.)
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// SaveFile writes a graph to path as a text edge list. (The ".bcsr" route
// to BCSR v2 is repro/graph.SaveFile's: the v2 writer lives in
// internal/bigio, which imports this package.)
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteEdgeList(f, g)
}

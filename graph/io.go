package graph

import (
	"io"
	"strings"

	"repro/internal/bigio"
	igraph "repro/internal/graph"
)

// Format names one of the graph interchange formats DetectFormat can
// identify.
type Format = igraph.Format

// The detectable interchange formats. A headerless two-column text file
// detects as FormatEdgeList even when the caller means it as an arc list —
// the two are syntactically identical; FormatArcList is only reported when
// the "# directed graph" header comment WriteArcList emits is present.
const (
	FormatUnknown          = igraph.FormatUnknown
	FormatBCSR             = igraph.FormatBCSR
	FormatEdgeList         = igraph.FormatEdgeList
	FormatArcList          = igraph.FormatArcList
	FormatWeightedEdgeList = igraph.FormatWeightedEdgeList
	FormatBCSR2            = igraph.FormatBCSR2
)

// ErrFormatUnknown reports that DetectFormat could not identify the input.
var ErrFormatUnknown = igraph.ErrFormatUnknown

// ErrBCSRVersion is the errors.Is target for BCSR version skew: a BCSR
// file whose version the reader it was handed cannot load.
var ErrBCSRVersion = igraph.ErrBCSRVersion

// BCSRVersionError carries the offending version and a hint naming the
// reader that can load the file, when one exists.
type BCSRVersionError = igraph.BCSRVersionError

// DetectFormat sniffs the graph format at the head of r without consuming
// it: the returned reader replays the full stream, sniffed bytes included,
// so it can be handed straight to the matching Read function. It
// recognizes the BCSR magic, the header comments the Write functions emit,
// and falls back to the field count of the first data line (3+ integer
// fields = weighted edge list, 2 = edge list).
func DetectFormat(r io.Reader) (Format, io.Reader, error) { return igraph.DetectFormat(r) }

// DetectFormatFile sniffs the format of the file at path by content, with
// the ".bcsr" extension as a tie-breaker for empty files.
func DetectFormatFile(path string) (Format, error) { return igraph.DetectFormatFile(path) }

// LoadFile reads a graph from path. BCSR v2 files (whatever their name)
// open through the mmap-backed loader — O(1), adjacency served from the
// mapping, see OpenMapped — and the returned Graph keeps the mapping
// alive. A BCSR v1 file is refused with a *BCSRVersionError: graphconv,
// through ReadBinary, is the one v1 reader. Anything else is read as a
// text edge list.
func LoadFile(path string) (*Graph, error) {
	format, err := igraph.DetectFormatFile(path)
	if err != nil {
		return nil, err
	}
	switch format {
	case FormatBCSR:
		return nil, &BCSRVersionError{Version: 1, Hint: "convert it to v2 with graphconv"}
	case FormatBCSR2:
		m, err := bigio.Open(path)
		if err != nil {
			return nil, err
		}
		return m.Graph(), nil
	}
	return igraph.LoadFile(path)
}

// SaveFile writes a graph to path, choosing the format by extension:
// ".bcsr" is BCSR v2 — the one binary format every writer in the module
// emits — written tmp -> fsync -> rename like WriteBCSR2File; anything else
// is a text edge list.
func SaveFile(path string, g *Graph) error {
	if strings.HasSuffix(path, ".bcsr") {
		return WriteBCSR2File(path, g, WriteOptions{})
	}
	return igraph.SaveFile(path, g)
}

// ReadEdgeList parses a whitespace-separated text edge list ('#' and '%'
// start comments).
func ReadEdgeList(r io.Reader) (*Graph, error) { return igraph.ReadEdgeList(r) }

// WriteEdgeList writes g as a text edge list, one edge per line.
func WriteEdgeList(w io.Writer, g *Graph) error { return igraph.WriteEdgeList(w, g) }

// ReadBinary parses the BCSR v1 binary format, which older versions of
// this module wrote; nothing writes it any more, and graphconv is the one
// program that still reads it, to rewrite it as v2.
func ReadBinary(r io.Reader) (*Graph, error) { return igraph.ReadBinary(r) }

// ReadArcList parses a directed text arc list: one "u v" arc per line
// meaning u -> v, with the same comment and renumbering conventions as
// ReadEdgeList. Self loops and duplicate arcs are dropped.
func ReadArcList(r io.Reader) (*Digraph, error) { return igraph.ReadArcList(r) }

// WriteArcList writes g as a directed text arc list, one arc per line.
func WriteArcList(w io.Writer, g *Digraph) error { return igraph.WriteArcList(w, g) }

// ReadWeightedEdgeList parses a weighted text edge list: one "u v weight"
// line per undirected edge, weights positive integers below 2^32. Duplicate
// edges keep the minimum weight; zero or negative weights are rejected.
func ReadWeightedEdgeList(r io.Reader) (*WGraph, error) { return igraph.ReadWeightedEdgeList(r) }

// WriteWeightedEdgeList writes g as a weighted text edge list.
func WriteWeightedEdgeList(w io.Writer, g *WGraph) error { return igraph.WriteWeightedEdgeList(w, g) }

// LoadDigraphFile reads a directed arc list from path.
func LoadDigraphFile(path string) (*Digraph, error) { return igraph.LoadDigraphFile(path) }

// SaveDigraphFile writes a digraph to path as a text arc list.
func SaveDigraphFile(path string, g *Digraph) error { return igraph.SaveDigraphFile(path, g) }

// LoadWGraphFile reads a weighted edge list from path.
func LoadWGraphFile(path string) (*WGraph, error) { return igraph.LoadWGraphFile(path) }

// SaveWGraphFile writes a weighted graph to path as a text edge list.
func SaveWGraphFile(path string, g *WGraph) error { return igraph.SaveWGraphFile(path, g) }

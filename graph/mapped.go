package graph

import (
	"io"

	"repro/internal/bigio"
)

// The billion-edge ingest surface: memory-mapped BCSR v2 graphs and the
// streaming out-of-core converter, re-exported from internal/bigio. See
// that package's documentation for the format specification and the
// memory model of mapped graphs.

// Mapped is an open, memory-mapped BCSR v2 graph. Its Graph() serves
// CSR slices that alias the mapping — read-only, valid until Close, and
// automatically unmapped if the handle leaks.
type Mapped = bigio.Mapped

// WriteOptions configures BCSR v2 serialization. BCSR v2 has one layout,
// so it is empty; WriteBCSR2 and WriteBCSR2File keep the parameter so
// existing callers compile.
type WriteOptions = bigio.WriteOptions

// ConvertOptions configures a streaming edge-list conversion.
type ConvertOptions = bigio.ConvertOptions

// ConvertStats summarizes a finished streaming conversion.
type ConvertStats = bigio.ConvertStats

// Converter streams undirected edges into a BCSR v2 file in bounded
// memory (external sort with spilled runs and k-way merge).
type Converter = bigio.Converter

// OpenMapped memory-maps the BCSR v2 file at path in O(1): no adjacency
// is read (or copied to the heap) at open; pages fault in lazily as the
// graph is traversed. Close the handle when done, or let it leak — a
// runtime cleanup unmaps it either way.
func OpenMapped(path string) (*Mapped, error) { return bigio.Open(path) }

// ReadBCSR2 decodes a BCSR v2 stream entirely in memory — the upload
// path's reader-shaped entry point. For files, prefer OpenMapped (O(1),
// no copy); for streams there is no mapping to serve from, so the bytes
// are buffered and the CSR sections view that buffer.
func ReadBCSR2(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return bigio.FromBytes(data)
}

// WriteBCSR2 serializes g as BCSR v2 to w.
func WriteBCSR2(w io.Writer, g *Graph, opts WriteOptions) error {
	return bigio.Write(w, g, opts)
}

// WriteBCSR2File writes g as BCSR v2 at path with tmp -> fsync -> rename
// crash discipline.
func WriteBCSR2File(path string, g *Graph, opts WriteOptions) error {
	return bigio.WriteFile(path, g, opts)
}

// NewConverter prepares a streaming conversion writing BCSR v2 to out.
func NewConverter(out string, opts ConvertOptions) (*Converter, error) {
	return bigio.NewConverter(out, opts)
}

// ConvertEdgeList streams a text edge list from r into a BCSR v2 file at
// out in bounded memory, interning vertex IDs exactly as ReadEdgeList
// does.
func ConvertEdgeList(r io.Reader, out string, opts ConvertOptions) (*ConvertStats, error) {
	return bigio.ConvertEdgeList(r, out, opts)
}

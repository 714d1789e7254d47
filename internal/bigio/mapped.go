package bigio

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Mapped is an open, memory-mapped BCSR v2 graph. The Graph it serves
// aliases both sections of the mapping, so the mapping must outlive
// every use of the Graph — which it does automatically: the Graph points
// into the Mapped, keeping it reachable, and a runtime cleanup unmaps the
// file if both become unreachable without Close having been called.
//
// The mapped slices are read-only views of the file. Mutating them is
// undefined (a fault on unix, silent corruption elsewhere), and they must
// never be grown or handed to append — the mmapsafe analyzer rejects
// escapes of mapped adjacency into append/copy-grow sites outside this
// package.
type Mapped struct {
	g    graph.Graph
	data []byte // the mapping (or heap buffer on non-unix)
	path string
	size int64

	mu      sync.Mutex
	closed  bool
	cleanup runtime.Cleanup
}

// Open maps the BCSR v2 file at path. The open is O(1) in the graph size
// — a header parse, a monotonicity scan of the offsets section
// (O(numNodes), a few milliseconds per hundred million vertices), and no
// adjacency access at all; pages fault in lazily as the graph is
// traversed.
//
// Corrupt files — truncated, bit-flipped, implausibly sized — return a
// *FormatError, as does a file of the removed compressed variant; BCSR
// files of another version return a *graph.BCSRVersionError. Adjacency
// values are not scanned at open (that would fault in the whole file);
// the offsets monotonicity check is what makes every Neighbors slicing
// operation in-bounds, and Validate runs the full O(E) structural check
// on demand.
func Open(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping survives the fd on every unix

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, &FormatError{Path: path, Detail: fmt.Sprintf("file too short for header: %d bytes", size)}
	}
	if size != int64(int(size)) {
		return nil, &FormatError{Path: path, Detail: fmt.Sprintf("file size %d exceeds address space", size)}
	}

	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	m := &Mapped{data: data, path: path, size: size}
	ok := false
	defer func() {
		if !ok {
			munmap(data)
		}
	}()

	g, err := decodeBCSR2(data, size)
	if err != nil {
		if fe, isFmt := err.(*FormatError); isFmt {
			fe.Path = path
		}
		return nil, err
	}
	m.g = g
	// Unmap on collection if the caller forgets Close. The argument is a
	// copy of the slice header (its backing memory is the mapping, not
	// the heap), so the cleanup keeps nothing alive.
	m.cleanup = runtime.AddCleanup(m, func(d []byte) { munmap(d) }, data)
	ok = true
	return m, nil
}

// decodeBCSR2 builds the graph views over a BCSR v2 byte buffer — a
// mapping (Open) or an in-memory upload (FromBytes). Both sections are
// served as views over data.
func decodeBCSR2(data []byte, size int64) (graph.Graph, error) {
	h, err := parseHeader(data[:headerSize], size)
	if err != nil {
		return graph.Graph{}, err
	}
	offsets := sectionUint64(data[h.offOff : h.offOff+h.offLen])
	if err := checkOffsets(offsets, h.numAdj); err != nil {
		return graph.Graph{}, &FormatError{Detail: err.Error()}
	}
	return graph.Graph{Offsets: offsets, Adj: sectionNodes(data[h.adjOff : h.adjOff+h.adjLen])}, nil
}

// FromBytes decodes a BCSR v2 image held in memory — an HTTP upload
// body, a test fixture — into a Graph. The Graph's sections alias data
// where the host allows it (both are heap-managed here, so unlike Open
// there is no lifetime to manage); treat them as read-only.
func FromBytes(data []byte) (*graph.Graph, error) {
	if len(data) < headerSize {
		return nil, &FormatError{Detail: fmt.Sprintf("file too short for header: %d bytes", len(data))}
	}
	g, err := decodeBCSR2(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	return &g, nil
}

// checkOffsets verifies the CSR offsets section: starts at zero, ends at
// numAdj, monotone throughout. This is the load-bearing check for memory
// safety of the zero-copy path — it bounds every Neighbors slice.
func checkOffsets(offsets []uint64, numAdj uint64) error {
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != numAdj {
		return fmt.Errorf("offsets[%d] = %d, want numAdj %d", n, offsets[n], numAdj)
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return fmt.Errorf("non-monotone offsets at vertex %d", v)
		}
	}
	return nil
}

// Graph returns the mapped graph. The pointer aliases the Mapped handle
// (keeping the mapping alive for as long as the Graph is reachable) and
// is valid until Close.
func (m *Mapped) Graph() *graph.Graph { return &m.g }

// Path returns the file the mapping was opened from.
func (m *Mapped) Path() string { return m.path }

// FileSize returns the on-disk size of the mapped file in bytes.
func (m *Mapped) FileSize() int64 { return m.size }

// ZeroCopy reports whether the served adjacency aliases the mapping
// directly (true on a little-endian mmap-capable platform) rather than a
// heap copy.
func (m *Mapped) ZeroCopy() bool { return hostLittleEndian && mmapSupported }

// Validate runs the full structural validation of the mapped graph —
// sorted adjacency, no self loops or duplicates, symmetric edges,
// in-range neighbors. It faults in the whole adjacency section; use it
// for integrity audits, not on the open path.
func (m *Mapped) Validate() error { return m.g.Validate() }

// Close unmaps the file. It is idempotent and safe to call concurrently;
// after Close the Graph is emptied (zero vertices) so stale uses fail
// loudly rather than faulting on unmapped pages.
func (m *Mapped) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.cleanup.Stop()
	m.g = graph.Graph{Offsets: []uint64{0}} // a valid zero-vertex CSR
	data := m.data
	m.data = nil
	return munmap(data)
}

package bigio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
)

// streamBCSRWriter writes a BCSR v2 file from a sorted (source-major,
// neighbor-minor) adjacency stream, which is exactly what the external
// merge emits. The adjacency section streams to disk as entries arrive;
// the only O(graph) state is the offsets array (n+1 uint64), backpatched
// together with the header once the stream ends. Output bytes are
// identical to Write on the equivalent in-memory graph: sections in the
// same order, same padding, with pre-section gaps materialized by
// Truncate (zeros) instead of explicit writes.
type streamBCSRWriter struct {
	f  *os.File
	bw *bufio.Writer
	h  *header
	n  uint64

	offsets []uint64
	cur     uint64 // vertex whose adjacency list is open
	count   uint64 // adjacency entries written
	last    uint64 // the previous arc, packed u<<32|v
}

func newStreamBCSRWriter(path string, n int) (*streamBCSRWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	h := &header{numNodes: uint64(n)}
	// The adjacency section's position depends only on n, so it is known
	// now; seek there and stream. Header and offsets are backpatched in
	// finish, and the skipped prefix reads as zeros (sparse or truncated
	// in), matching Write's explicit zero padding byte for byte.
	h.layout()
	if _, err := f.Seek(int64(h.adjOff), 0); err != nil {
		f.Close()
		return nil, err
	}
	return &streamBCSRWriter{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<20),
		h:       h,
		n:       uint64(n),
		offsets: make([]uint64, uint64(n)+1),
	}, nil
}

// advanceTo closes the adjacency lists of every vertex before u.
func (w *streamBCSRWriter) advanceTo(u uint64) {
	for w.cur < u {
		w.offsets[w.cur+1] = w.count
		w.cur++
	}
}

// add appends the arc packed as u<<32|v: neighbor v to vertex u's
// adjacency. Calls must arrive in strictly increasing order with u, v < n.
func (w *streamBCSRWriter) add(packed uint64) error {
	u, v := packed>>32, packed&0xffffffff
	if u >= w.n || v >= w.n {
		return fmt.Errorf("bigio: edge (%d, %d) out of range for %d nodes", u, v, w.n)
	}
	if w.count > 0 && packed <= w.last {
		return fmt.Errorf("bigio: adjacency stream not sorted at (%d, %d)", u, v)
	}
	w.last = packed
	w.advanceTo(u)
	// Append into bufio's free space: a local [4]byte handed to Write
	// escapes, one heap allocation per adjacency entry.
	if _, err := w.bw.Write(binary.LittleEndian.AppendUint32(w.bw.AvailableBuffer(), uint32(v))); err != nil {
		return err
	}
	w.count++
	return nil
}

// finish closes the remaining lists, backpatches offsets and header,
// fsyncs, and closes the file. It returns the final size and the
// adjacency entry count.
func (w *streamBCSRWriter) finish() (int64, uint64, error) {
	w.advanceTo(w.n)
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return 0, 0, err
	}

	h := w.h
	h.numAdj = w.count
	total := h.layout()
	// Extend to the padded total (zeros).
	if err := w.f.Truncate(int64(total)); err != nil {
		w.abort()
		return 0, 0, err
	}

	if _, err := w.f.Seek(int64(h.offOff), 0); err != nil {
		w.abort()
		return 0, 0, err
	}
	bw := bufio.NewWriterSize(w.f, 1<<20)
	if err := writeUint64s(bw, w.offsets); err != nil {
		w.abort()
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		w.abort()
		return 0, 0, err
	}
	if _, err := w.f.WriteAt(h.marshal(), 0); err != nil {
		w.abort()
		return 0, 0, err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return 0, 0, err
	}
	if err := w.f.Close(); err != nil {
		return 0, 0, err
	}
	return int64(total), w.count, nil
}

// abort closes and removes the partial output.
func (w *streamBCSRWriter) abort() {
	w.f.Close()
	os.Remove(w.f.Name())
}

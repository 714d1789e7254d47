package bigio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// WriteOptions configures BCSR v2 serialization. BCSR v2 has one layout,
// so there is nothing to configure; the type stays so that callers'
// WriteOptions{} arguments keep compiling.
type WriteOptions struct{}

// Write serializes g as BCSR v2 to w. The output is byte-identical to
// what the streaming Converter produces for the same graph — the
// property the converter tests pin — and is written strictly
// sequentially, so it composes with the server's atomic-write discipline.
func Write(w io.Writer, g *graph.Graph, _ WriteOptions) error {
	h := &header{
		numNodes: uint64(g.NumNodes()),
		numAdj:   uint64(len(g.Adj)),
	}
	total := h.layout()

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(h.marshal()); err != nil {
		return err
	}
	pos := uint64(headerSize)
	pad := func(to uint64) error {
		for pos < to {
			chunk := min(to-pos, uint64(pageSize))
			if _, err := bw.Write(zeroPage[:chunk]); err != nil {
				return err
			}
			pos += chunk
		}
		return nil
	}

	if err := pad(h.offOff); err != nil {
		return err
	}
	if err := writeUint64s(bw, g.Offsets); err != nil {
		return err
	}
	pos += h.offLen

	if err := pad(h.adjOff); err != nil {
		return err
	}
	var b [4]byte
	for _, v := range g.Adj {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	pos += h.adjLen
	if err := pad(total); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes g as BCSR v2 at path with the tmp -> fsync -> rename
// -> dir-fsync discipline: a crash mid-write never leaves a torn file at
// path.
func WriteFile(path string, g *graph.Graph, opts WriteOptions) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := Write(f, g, opts); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// zeroPage backs section padding writes.
var zeroPage [pageSize]byte

// writeUint64s writes vals little-endian through bw.
func writeUint64s(bw *bufio.Writer, vals []uint64) error {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so a preceding rename is durable — the same
// discipline internal/server's writeAtomic applies to its store.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("bigio: fsync %s: %w", dir, err)
	}
	return nil
}

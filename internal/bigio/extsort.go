package bigio

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
)

// External sort of packed directed pairs. An undirected edge {u, v}
// becomes the two uint64 values u<<32|v and v<<32|u; sorting that packed
// form ascending is exactly CSR order (source major, neighbor minor), so
// the merged stream feeds the BCSR writer directly. The shift is a fixed
// 32, not the Builder's bit length of n-1: an edge-list conversion learns
// n only at Finish, after the runs are written. Runs are flat
// little-endian uint64 files, sorted and deduplicated; the k-way merge
// deduplicates globally, which is what drops parallel edges the same way
// the in-memory Builder does.

// DefaultMaxFanIn bounds how many runs one merge pass reads at once.
// Beyond it, runs are merged in groups into intermediate runs first
// (multi-pass merge), keeping the open-file count and heap size bounded
// no matter how small the sort buffer was.
const DefaultMaxFanIn = 64

// runBatch is how many packed values a run reader decodes per refill.
const runBatch = 8192

// writeRun sorts and deduplicates buf in place, writes it as a run file
// in dir, and returns the file's path. buf is clobbered. Every key is
// below 1<<keyBits, so the Builder's radix sort only reads those bits.
func writeRun(dir string, seq int, buf []uint64, keyBits uint) (string, error) {
	graph.SortKeys(buf, nil, keyBits)
	buf = slices.Compact(buf)
	path := filepath.Join(dir, fmt.Sprintf("run-%06d", seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var b [8]byte
	for _, v := range buf {
		binary.LittleEndian.PutUint64(b[:], v)
		if _, err := bw.Write(b[:]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	// Run files are scratch: a crash discards the whole conversion, so
	// they are not fsynced.
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// runReader streams one run file in batches. The batch is a field, not a
// local of refill: a local array handed to io.ReadFull escapes to the
// heap, one allocation per refill.
type runReader struct {
	f     *os.File
	br    *bufio.Reader
	batch [8 * runBatch]byte
	pos   int // byte offset of the next value in batch
	n     int // bytes in batch
	cur   uint64
	err   error
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<20)}
	return r, nil
}

// next advances to the next value; it returns false at end of run or on
// error (recorded in r.err).
func (r *runReader) next() bool {
	if r.pos == r.n {
		if !r.refill() {
			return false
		}
	}
	r.cur = binary.LittleEndian.Uint64(r.batch[r.pos:])
	r.pos += 8
	return true
}

func (r *runReader) refill() bool {
	n, err := io.ReadFull(r.br, r.batch[:])
	if n%8 != 0 {
		r.err = fmt.Errorf("bigio: run %s: truncated value", r.f.Name())
		return false
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		r.err = err
		return false
	}
	if n == 0 {
		return false
	}
	r.pos, r.n = 0, n
	return true
}

func (r *runReader) close() error { return r.f.Close() }

// runHeap is a min-heap of active run readers keyed by their current
// value; ties break on reader order for determinism.
type runHeap []*runReader

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(i, j int) bool { return h[i].cur < h[j].cur }
func (h runHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeRuns k-way-merges the given run files, emitting each distinct
// value exactly once in ascending order. The run files are removed as
// they drain.
func mergeRuns(paths []string, emit func(uint64) error) error {
	readers := make([]*runReader, 0, len(paths))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	h := make(runHeap, 0, len(paths))
	for _, p := range paths {
		r, err := openRun(p)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		if r.next() {
			h = append(h, r)
		} else if r.err != nil {
			return r.err
		}
	}
	heap.Init(&h)

	var last uint64
	haveLast := false
	for h.Len() > 0 {
		r := h[0]
		v := r.cur
		if r.next() {
			heap.Fix(&h, 0)
		} else {
			if r.err != nil {
				return r.err
			}
			heap.Pop(&h)
		}
		if haveLast && v == last {
			continue
		}
		last, haveLast = v, true
		if err := emit(v); err != nil {
			return err
		}
	}
	for _, r := range readers {
		if err := r.close(); err != nil {
			return err
		}
		os.Remove(r.f.Name())
	}
	readers = nil
	return nil
}

// reduceRuns merges groups of at most fanIn runs into intermediate runs
// until no more than fanIn remain, returning the surviving run paths and
// the number of merge passes performed.
func reduceRuns(dir string, paths []string, fanIn int, seq *int) ([]string, int, error) {
	passes := 0
	for len(paths) > fanIn {
		passes++
		var next []string
		for start := 0; start < len(paths); start += fanIn {
			group := paths[start:min(start+fanIn, len(paths))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			*seq++
			out := filepath.Join(dir, fmt.Sprintf("run-%06d", *seq))
			if err := mergeRunsToFile(group, out); err != nil {
				return nil, passes, err
			}
			next = append(next, out)
		}
		paths = next
	}
	return paths, passes, nil
}

// mergeRunsToFile merges a group of runs into a new run file at out.
func mergeRunsToFile(group []string, out string) error {
	f, err := os.OpenFile(out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var b [8]byte
	err = mergeRuns(group, func(v uint64) error {
		binary.LittleEndian.PutUint64(b[:], v)
		_, werr := bw.Write(b[:])
		return werr
	})
	if err != nil {
		f.Close()
		os.Remove(out)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(out)
		return err
	}
	return f.Close()
}

package bigio

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/graph"
	"repro/internal/memprof"
)

// ConvertOptions configures a streaming conversion.
type ConvertOptions struct {
	// MemBytes budgets the edge sort buffer. Each buffered entry costs
	// 8 bytes (an edge adds two), so the buffer holds MemBytes/8
	// entries; peak converter memory is this buffer, the radix sort's
	// scratch, the merge readers and one (numNodes+1)-entry offsets
	// array — independent of how many edges stream through. The scratch
	// is at most the largest bucket of the sort's top digit (graph.SortKeys):
	// a few percent of the buffer on R-MAT, half of it for a star, whose
	// every arc in one direction shares a source. Default 256 MiB; a
	// budget above the machine's physical memory is an error. Tiny values
	// (down to one edge) are honored: they just spill more runs and force
	// multi-pass merging.
	MemBytes int64
	// NumNodes fixes the vertex count; vertices in [maxSeen+1, NumNodes)
	// are isolated. Zero means infer maxSeen+1 from the edges.
	NumNodes int
	// TmpDir holds the sorted runs and the output's .tmp file; defaults
	// to the output file's directory so the final rename stays on one
	// filesystem.
	TmpDir string
	// MaxFanIn bounds runs merged per pass (DefaultMaxFanIn when zero).
	MaxFanIn int
	// Logf, when set, receives coarse progress lines (run spills, merge
	// passes).
	Logf func(format string, args ...any)
}

func (o *ConvertOptions) memBytes() int64 {
	if o.MemBytes <= 0 {
		return 256 << 20
	}
	return o.MemBytes
}

func (o *ConvertOptions) fanIn() int {
	if o.MaxFanIn > 1 {
		return o.MaxFanIn
	}
	return DefaultMaxFanIn
}

func (o *ConvertOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ConvertStats summarizes a finished conversion.
type ConvertStats struct {
	EdgesIn     uint64 // edge pairs pushed (self loops excluded)
	SelfLoops   uint64 // pushed pairs dropped as self loops
	Nodes       int    // vertices in the output
	Edges       uint64 // distinct undirected edges in the output
	Runs        int    // sorted runs spilled
	MergePasses int    // intermediate merge passes (0 = single merge)
	BytesOut    int64  // final file size
}

// Converter streams undirected edges into a BCSR v2 file in bounded
// memory. Push edges with AddEdge, then call Finish exactly once; Close
// releases scratch state and is safe (and a no-op) after a successful
// Finish, so `defer c.Close()` is the idiomatic shape. The output file
// appears atomically: it is written under a temporary name and renamed
// into place only after a successful fsync, so a crash or error mid-
// conversion leaves no torn output.
type Converter struct {
	out    string
	opts   ConvertOptions
	tmpDir string // scratch directory (created, removed by Close)

	buf       []uint64
	runs      []string
	seq       int
	maxNode   uint64
	haveEdges bool
	edgesIn   uint64
	selfLoops uint64
	finished  bool
}

// NewConverter prepares a conversion writing to out. It allocates the
// whole sort buffer, so a MemBytes the machine cannot hold fails here,
// before any scratch exists.
func NewConverter(out string, opts ConvertOptions) (*Converter, error) {
	mem := opts.memBytes()
	if phys := memprof.PhysicalMemory(); phys > 0 && uint64(mem) > phys {
		return nil, fmt.Errorf("bigio: sort buffer of %d MiB exceeds this machine's %d MiB of memory", mem>>20, phys>>20)
	}
	base := opts.TmpDir
	if base == "" {
		base = filepath.Dir(out)
	}
	tmpDir, err := os.MkdirTemp(base, "bigio-convert-*")
	if err != nil {
		return nil, err
	}
	return &Converter{
		out:    out,
		opts:   opts,
		tmpDir: tmpDir,
		buf:    make([]uint64, 0, max(mem/8, 2)), // 2: one edge, both directions
	}, nil
}

// AddEdge pushes one undirected edge. Self loops are dropped, duplicates
// are welcome (the merge deduplicates), and order is irrelevant.
func (c *Converter) AddEdge(u, v graph.Node) error {
	if u == v {
		c.selfLoops++
		return nil
	}
	c.edgesIn++
	if uint64(u) > c.maxNode {
		c.maxNode = uint64(u)
	}
	if uint64(v) > c.maxNode {
		c.maxNode = uint64(v)
	}
	c.haveEdges = true
	if err := c.push(uint64(u)<<32 | uint64(v)); err != nil {
		return err
	}
	return c.push(uint64(v)<<32 | uint64(u))
}

func (c *Converter) push(packed uint64) error {
	c.buf = append(c.buf, packed)
	if len(c.buf) == cap(c.buf) {
		return c.spill()
	}
	return nil
}

func (c *Converter) spill() error {
	if len(c.buf) == 0 {
		return nil
	}
	c.seq++
	path, err := writeRun(c.tmpDir, c.seq, c.buf, 32+uint(bits.Len64(c.maxNode)))
	if err != nil {
		return err
	}
	c.runs = append(c.runs, path)
	c.buf = c.buf[:0]
	if len(c.runs)%64 == 0 {
		c.opts.logf("bigio: %d runs spilled (%d edges in)", len(c.runs), c.edgesIn)
	}
	return nil
}

// Finish merges the runs, writes the BCSR v2 file, and renames it into
// place. It must be called once; the Converter is unusable afterwards
// except for Close.
func (c *Converter) Finish() (*ConvertStats, error) {
	if c.finished {
		return nil, fmt.Errorf("bigio: Finish called twice")
	}
	c.finished = true
	if err := c.spill(); err != nil {
		return nil, err
	}
	c.buf = nil

	n := c.opts.NumNodes
	if n < 0 {
		return nil, fmt.Errorf("bigio: negative NumNodes %d", n)
	}
	if n == 0 && c.haveEdges {
		n = int(c.maxNode) + 1
	}
	if c.haveEdges && c.maxNode >= uint64(n) {
		return nil, fmt.Errorf("bigio: edge references node %d but NumNodes is %d", c.maxNode, n)
	}
	stats := &ConvertStats{
		EdgesIn:   c.edgesIn,
		SelfLoops: c.selfLoops,
		Nodes:     n,
		Runs:      len(c.runs),
	}

	runs, passes, err := reduceRuns(c.tmpDir, c.runs, c.opts.fanIn(), &c.seq)
	if err != nil {
		return nil, err
	}
	c.runs = runs
	stats.MergePasses = passes
	if passes > 0 {
		c.opts.logf("bigio: reduced %d runs in %d merge passes", stats.Runs, passes)
	}

	tmpOut := filepath.Join(c.tmpDir, "out.bcsr")
	w, err := newStreamBCSRWriter(tmpOut, n)
	if err != nil {
		return nil, err
	}
	err = mergeRuns(c.runs, w.add)
	c.runs = nil
	if err != nil {
		w.abort()
		return nil, err
	}
	size, adjEntries, err := w.finish()
	if err != nil {
		return nil, err
	}
	stats.Edges = adjEntries / 2
	stats.BytesOut = size

	if err := os.Rename(tmpOut, c.out); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(c.out)); err != nil {
		return nil, err
	}
	return stats, nil
}

// Close removes the scratch directory and any runs still in it. It is
// idempotent and safe after Finish (successful or not).
func (c *Converter) Close() error {
	c.buf = nil
	c.runs = nil
	if c.tmpDir == "" {
		return nil
	}
	dir := c.tmpDir
	c.tmpDir = ""
	return os.RemoveAll(dir)
}

// ConvertEdgeList streams a SNAP/KONECT-style text edge list from r into
// a BCSR v2 file at out. Vertex IDs are densely renumbered in order of
// first appearance — the same interning ReadEdgeList applies, so the
// output graph is identical to the heap loader's for the same input. The
// ID table is the one O(distinct vertices) structure this path keeps in
// memory.
func ConvertEdgeList(r io.Reader, out string, opts ConvertOptions) (*ConvertStats, error) {
	c, err := NewConverter(out, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	ids := make(map[uint64]graph.Node)
	intern := func(raw uint64) graph.Node {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := graph.Node(len(ids))
		ids[raw] = id
		return id
	}
	err = graph.ScanEdgeLines(r, func(line int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("bigio: line %d: want at least 2 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bigio: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bigio: line %d: %v", line, err)
		}
		return c.AddEdge(intern(u), intern(v))
	})
	if err != nil {
		return nil, err
	}
	if opts.NumNodes == 0 {
		// Interning is dense, so the vertex count is the table size even
		// when the last-interned ID only ever self-looped.
		c.opts.NumNodes = len(ids)
		if c.maxNode >= uint64(len(ids)) && c.haveEdges {
			return nil, fmt.Errorf("bigio: internal: interner produced sparse IDs")
		}
	}
	return c.Finish()
}

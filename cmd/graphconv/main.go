// Command graphconv converts graphs to the mmap-ready BCSR v2 format
// using bounded memory, so edge lists far larger than RAM stream through
// an external sort (spilled sorted runs, k-way merge) straight onto disk.
//
// Inputs: text edge lists (SNAP/KONECT style, IDs densely renumbered in
// order of first appearance — identical to the in-memory loader) and
// BCSR v1 binaries (upgraded in place of re-parsing text). A BCSR v2 file
// is already the output format, so it is refused as input. The output is
// written under a temporary name and renamed into place after fsync, so
// an interrupted conversion never leaves a torn file.
//
// Examples:
//
//	graphconv -in web.txt -out web.bcsr -mem 256MiB
//	graphconv -in old-v1.bcsr -out new-v2.bcsr   # v1 -> v2 upgrade
//	graphconv -in web.bcsr -verify               # full structural audit
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/graph"
	"repro/internal/memprof"
)

func main() {
	var (
		in     = flag.String("in", "", "input graph: text edge list or BCSR v1 (format sniffed); with -verify alone, BCSR v2")
		out    = flag.String("out", "", "output BCSR v2 path")
		mem    = flag.String("mem", "256MiB", "edge sort buffer budget (suffixes KiB, MiB, GiB)")
		tmpdir = flag.String("tmp", "", "scratch directory for sorted runs (default: output directory)")
		fanIn  = flag.Int("fan-in", 0, "max runs merged per pass (default 64)")
		verify = flag.Bool("verify", false, "with -out: re-open and fully validate the result; without: just validate -in")
		quiet  = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *in == "" {
		fail(fmt.Errorf("need -in FILE"))
	}
	memBytes, err := memprof.ParseSize(*mem)
	if err != nil {
		fail(fmt.Errorf("-mem: %w", err))
	}

	if *out == "" {
		if !*verify {
			fail(fmt.Errorf("need -out FILE (or -verify to audit -in)"))
		}
		if err := verifyFile(*in); err != nil {
			fail(err)
		}
		return
	}

	opts := graph.ConvertOptions{
		MemBytes: memBytes,
		TmpDir:   *tmpdir,
		MaxFanIn: *fanIn,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	stats, err := convert(*in, *out, opts)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	if !*quiet {
		fmt.Printf("wrote %s: %d nodes, %d edges, %.1f MiB in %v (%d runs, %d merge passes)\n",
			*out, stats.Nodes, stats.Edges, float64(stats.BytesOut)/(1<<20),
			elapsed.Round(time.Millisecond), stats.Runs, stats.MergePasses)
	}
	if *verify {
		if err := verifyFile(*out); err != nil {
			fail(err)
		}
	}
}

// convert routes by the sniffed input format: text edge lists stream
// through the external sorter; a BCSR v1 file is heap-loaded once and
// rewritten (its CSR is already deduplicated and sorted).
func convert(in, out string, opts graph.ConvertOptions) (*graph.ConvertStats, error) {
	format, err := graph.DetectFormatFile(in)
	if err != nil {
		return nil, err
	}
	switch format {
	case graph.FormatBCSR:
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		g, err := graph.ReadBinary(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := graph.WriteBCSR2File(out, g, graph.WriteOptions{}); err != nil {
			return nil, err
		}
		return statsFor(g, out)
	case graph.FormatBCSR2:
		return nil, fmt.Errorf("%s is already BCSR v2; convert from its source edge list instead", in)
	case graph.FormatEdgeList, graph.FormatUnknown:
		// Headerless two-column text sniffs as FormatEdgeList; an
		// unknown head still gets a chance as text so odd comment styles
		// fail with a line-number error instead of "unknown format".
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ConvertEdgeList(f, out, opts)
	default:
		return nil, fmt.Errorf("cannot convert %s input (undirected graphs only)", format)
	}
}

func statsFor(g *graph.Graph, out string) (*graph.ConvertStats, error) {
	st, err := os.Stat(out)
	if err != nil {
		return nil, err
	}
	return &graph.ConvertStats{
		Nodes:    g.NumNodes(),
		Edges:    uint64(g.NumEdges()),
		BytesOut: st.Size(),
	}, nil
}

// verifyFile opens a BCSR v2 file by mmap and runs the full structural
// validation (sorted adjacency, symmetry, no loops or duplicates).
func verifyFile(path string) error {
	start := time.Now()
	m, err := graph.OpenMapped(path)
	if err != nil {
		return err
	}
	defer m.Close()
	openIn := time.Since(start)
	if err := m.Validate(); err != nil {
		return fmt.Errorf("graphconv: %s failed validation: %w", path, err)
	}
	g := m.Graph()
	fmt.Printf("%s: valid BCSR v2, %d nodes, %d edges (opened in %v, zero-copy: %v)\n",
		path, g.NumNodes(), g.NumEdges(), openIn.Round(time.Microsecond), m.ZeroCopy())
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphconv:", err)
	os.Exit(1)
}

// Command graphgen generates synthetic graphs (the Table-I proxies and the
// Figure-4 sweep families) and writes them as edge lists or BCSR binaries.
//
// -directed generates a random strongly connected digraph (-n vertices,
// ~-m arcs) written as a text arc list; -weighted assigns every edge of the
// generated undirected graph a uniform weight in [1, -maxw] and writes a
// "u v w" edge list — the input formats of bcapprox/bcexact -directed and
// -weighted.
//
// Examples:
//
//	graphgen -kind rmat -scale 16 -ef 16 -o twitter-proxy.bcsr
//	graphgen -kind hyperbolic -n 100000 -deg 30 -o web.txt
//	graphgen -kind road -rows 500 -cols 500 -o road.txt
//	graphgen -directed -n 100000 -m 1000000 -o links.txt
//	graphgen -kind road -rows 300 -cols 300 -weighted -maxw 10 -o roads.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/memprof"
)

func main() {
	var (
		kind     = flag.String("kind", "rmat", "rmat | hyperbolic | road | er | ba")
		scale    = flag.Int("scale", 14, "rmat: log2 of node count")
		ef       = flag.Int("ef", 16, "rmat: edges per vertex")
		n        = flag.Int("n", 100000, "hyperbolic/er/ba/directed: node count")
		deg      = flag.Float64("deg", 30, "hyperbolic: average degree")
		gamma    = flag.Float64("gamma", 3, "hyperbolic: power-law exponent")
		rows     = flag.Int("rows", 300, "road: lattice rows")
		cols     = flag.Int("cols", 300, "road: lattice columns")
		m        = flag.Int("m", 1000000, "er/directed: edge (arc) count")
		k        = flag.Int("k", 5, "ba: edges per new vertex")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		out      = flag.String("o", "", "output path (.bcsr for BCSR v2 binary, else edge list)")
		lcc      = flag.Bool("lcc", false, "keep only the largest connected component")
		directed = flag.Bool("directed", false, "generate a random strongly connected digraph (-n, -m) as an arc list")
		weighted = flag.Bool("weighted", false, "assign uniform weights in [1, -maxw] and write a weighted edge list")
		maxW     = flag.Uint64("maxw", 10, "with -weighted: maximum edge weight")
		stream   = flag.Bool("stream", false, "stream edges to the output in bounded memory (rmat/er/road; .bcsr output goes through the out-of-core converter)")
		connect  = flag.Bool("connect", false, "with -stream: add a spanning binary tree, edges (i, (i-1)/2), so the output is connected at low diameter")
		mem      = flag.String("mem", "256MiB", "with -stream to .bcsr: converter sort-buffer budget")
		memstats = flag.Bool("memstats", false, "print heap and resident-set stats before exiting (how the ingest smoke test verifies -mem bounds the converter)")
	)
	flag.Parse()
	defer func() {
		if *memstats {
			memprof.Read().Report(os.Stdout)
		}
	}()
	if *out == "" {
		fatal(fmt.Errorf("need -o FILE"))
	}
	if *directed && *weighted {
		fatal(fmt.Errorf("-directed and -weighted are mutually exclusive"))
	}
	start := time.Now()

	if *stream {
		if *directed || *weighted || *lcc {
			fatal(fmt.Errorf("-stream is incompatible with -directed, -weighted, and -lcc (it never materializes the graph)"))
		}
		if err := streamGen(*kind, *out, streamParams{
			scale: *scale, ef: *ef, n: *n, m: *m, rows: *rows, cols: *cols,
			seed: *seed, connect: *connect, mem: *mem,
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("streamed %s (%v)\n", *out, time.Since(start).Round(time.Millisecond))
		return
	}

	if *directed {
		if *n < 2 {
			fatal(fmt.Errorf("-directed needs -n >= 2, got %d", *n))
		}
		if *m < 0 {
			fatal(fmt.Errorf("-directed needs -m >= 0, got %d", *m))
		}
		g := graph.RandomDigraph(*n, *m, *seed)
		if err := graph.SaveDigraphFile(*out, g); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d nodes, %d arcs, strongly connected (%v)\n",
			*out, g.NumNodes(), g.NumArcs(), time.Since(start).Round(time.Millisecond))
		return
	}

	var g *graph.Graph
	switch *kind {
	case "rmat":
		g = graph.RMAT(graph.Graph500(*scale, *ef, *seed))
	case "hyperbolic":
		g = graph.Hyperbolic(graph.HyperbolicParams{N: *n, AvgDegree: *deg, Gamma: *gamma, Seed: *seed})
	case "road":
		g = graph.Road(graph.RoadParams{Rows: *rows, Cols: *cols, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: *seed})
	case "er":
		g = graph.ErdosRenyi(*n, *m, *seed)
	case "ba":
		g = graph.BarabasiAlbert(*n, *k, *seed)
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}
	if *lcc {
		var err error
		g, _, err = graph.LargestComponent(g)
		if err != nil {
			fatal(err)
		}
	}

	if *weighted {
		if *maxW < 1 || *maxW > math.MaxUint32 {
			fatal(fmt.Errorf("-maxw must be in [1, %d], got %d", uint64(math.MaxUint32), *maxW))
		}
		wg := graph.RandomWeights(g, uint32(*maxW), *seed+0x9E37)
		if err := graph.SaveWGraphFile(*out, wg); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d nodes, %d weighted edges, weights in [1, %d] (%v)\n",
			*out, wg.NumNodes(), wg.NumEdges(), *maxW, time.Since(start).Round(time.Millisecond))
		return
	}

	if err := graph.SaveFile(*out, g); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d nodes, %d edges (%v)\n",
		*out, g.NumNodes(), g.NumEdges(), time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}

// streamParams carries the -stream mode's flag values.
type streamParams struct {
	scale, ef, n, m, rows, cols int
	seed                        uint64
	connect                     bool
	mem                         string
}

// streamGen writes the generator's edge stream directly to the output in
// bounded memory: a ".bcsr" path goes through the out-of-core converter
// (external sort, BCSR v2), anything else is written as a text edge list
// line by line. Only the O(1)-state generators stream (rmat, er, road);
// ba and hyperbolic inherently materialize and are rejected.
func streamGen(kind, out string, p streamParams) error {
	var numNodes int
	var run func(emit func(u, v graph.Node) error) error
	switch kind {
	case "rmat":
		rp := graph.Graph500(p.scale, p.ef, p.seed)
		numNodes = 1 << p.scale
		run = func(emit func(u, v graph.Node) error) error { return graph.StreamRMAT(rp, emit) }
	case "er":
		numNodes = p.n
		run = func(emit func(u, v graph.Node) error) error {
			return graph.StreamErdosRenyi(p.n, p.m, p.seed, emit)
		}
	case "road":
		rp := graph.RoadParams{Rows: p.rows, Cols: p.cols, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: p.seed}
		numNodes = p.rows * p.cols
		run = func(emit func(u, v graph.Node) error) error { return graph.StreamRoad(rp, emit) }
	default:
		return fmt.Errorf("-stream supports rmat, er, and road (got %q; ba and hyperbolic must materialize)", kind)
	}

	emitAll := func(emit func(u, v graph.Node) error) error {
		if err := run(emit); err != nil {
			return err
		}
		if p.connect {
			// A spanning tree guarantees one component, so downstream
			// largest-component extraction is the identity (no copy). The
			// heap-shaped tree joins every vertex to vertex 0 within
			// floor(log2 n) edges, so the output's diameter is at most
			// 2·floor(log2 n) whatever the generator emitted: an R-MAT
			// graph stays a low-diameter input, where a chain (i, i+1)
			// made it hundreds of hops wide.
			for i := 1; i < numNodes; i++ {
				if err := emit(graph.Node(i), graph.Node((i-1)/2)); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if strings.HasSuffix(out, ".bcsr") {
		memBytes, err := memprof.ParseSize(p.mem)
		if err != nil {
			return fmt.Errorf("-mem: %w", err)
		}
		c, err := graph.NewConverter(out, graph.ConvertOptions{
			MemBytes: memBytes,
			NumNodes: numNodes,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := emitAll(c.AddEdge); err != nil {
			return err
		}
		stats, err := c.Finish()
		if err != nil {
			return err
		}
		fmt.Printf("converted: %d nodes, %d edges, %.1f MiB (%d runs, %d merge passes)\n",
			stats.Nodes, stats.Edges, float64(stats.BytesOut)/(1<<20), stats.Runs, stats.MergePasses)
		return nil
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "# undirected graph: %d nodes (streamed %s, may contain duplicates/self loops)\n", numNodes, kind)
	if err := emitAll(func(u, v graph.Node) error {
		_, werr := fmt.Fprintf(bw, "%d %d\n", u, v)
		return werr
	}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

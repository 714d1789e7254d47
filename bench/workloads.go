package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/kadabra"
)

// delta is the failure probability of every estimate in the benchmark.
const delta = 0.1

// maxWeight is the largest edge weight graph.RandomWeights draws.
const maxWeight = 10

// topologySeed generates every workload's graph, whatever -seed is. The cost
// of an adaptive-sampling run depends on the instance — the vertex diameter
// enters omega through floor(log2), the stopping rule waits for the top
// vertex — and ten R-MAT instances of one size differ by up to 80 % in time
// to solution, which no regression bound could see through. -seed drives what
// is random about the requests: every op's sampling seed (the correctness
// reference's too) and the edge weights of weighted-seq.
const topologySeed = 1

// sizes are the input dimensions. The benchmark always runs fullSize; the
// smoke test runs the same code at a toy size.
type sizes struct {
	socialScale, smallScale, weightedScale, roadSide int
	// the correctness twins (see twinCheck)
	twinScale, twinWeightedScale, twinRoadSide int
}

var fullSize = sizes{
	socialScale: 16, smallScale: 12, weightedScale: 11, roadSide: 120,
	twinScale: 10, twinWeightedScale: 9, twinRoadSide: 24,
}

// workload is one named set of inputs plus the call the benchmark times on
// them. One op is one complete estimate.
type workload struct {
	name, why string
	// backend selects the call: "shm" and "seq" run one Estimator in this
	// goroutine, "tcp2" two TCP ranks over loopback, "daemon" one HTTP
	// session against an in-process betweennessd.
	backend  string
	threads  int
	eps      float64
	weighted bool
	// mapped serves the graph from a BCSR2 file through graph.OpenMapped.
	mapped bool
	// minOps is the fewest timed ops a run reports, however long they take.
	minOps int
	// gen builds the raw input (before the LCC reduction); twin the small
	// instance of the same family that is checked against exact Brandes.
	gen, twin func(sz sizes) *graph.Graph
}

func rmat(scale int) *graph.Graph {
	return graph.RMAT(graph.Graph500(scale, 16, topologySeed))
}

func road(side int) *graph.Graph {
	return graph.Road(graph.RoadParams{Rows: side, Cols: side, DeleteProb: 0.1, Seed: topologySeed})
}

var workloads = []*workload{
	{
		name: "social-shm",
		why: "Default path on the paper's main input class (low-diameter power-law R-MAT, mmap'd BCSR2): " +
			"the bidirectional BFS sampler does the work, frames stay sparse, transport idle.",
		backend: "shm", threads: 2, eps: 0.005, mapped: true, minOps: 5,
		gen:  func(sz sizes) *graph.Graph { return rmat(sz.socialScale) },
		twin: func(sz sizes) *graph.Graph { return rmat(sz.twinScale) },
	},
	{
		name: "road-shm",
		why: "The paper's hard case, high diameter: samples explore O(n) and return long paths, so sampler " +
			"and epoch frames are used the opposite way from social-shm and the diameter phase is visible.",
		backend: "shm", threads: 2, eps: 0.01, minOps: 5,
		gen:  func(sz sizes) *graph.Graph { return road(sz.roadSide) },
		twin: func(sz sizes) *graph.Graph { return road(sz.twinRoadSide) },
	},
	{
		name: "weighted-seq",
		why: "Dijkstra sampler and internal/pq do all the work on the sequential engine: no threads, epochs or " +
			"transport, so counts repeat exactly; the only end-to-end cover of weighted and sequential.",
		backend: "seq", eps: 0.02, weighted: true, minOps: 5,
		gen:  func(sz sizes) *graph.Graph { return rmat(sz.weightedScale) },
		twin: func(sz sizes) *graph.Graph { return rmat(sz.twinWeightedScale) },
	},
	{
		name: "small-tcp2",
		why: "Algorithm 2 over a real transport at a size where connect, liveness timers, barrier/reduce and " +
			"wire encode/fold dominate and the sampler does little; a TCP fixed-cost change shows only here.",
		backend: "tcp2", threads: 1, eps: 0.01, minOps: 20,
		gen:  func(sz sizes) *graph.Graph { return rmat(sz.smallScale) },
		twin: func(sz sizes) *graph.Graph { return rmat(sz.twinScale) },
	},
	{
		name: "daemon-session",
		why: "What a betweennessd user sees: one HTTP session per estimate on an in-memory daemon. JSON, registry, " +
			"run-slot admission, polling and the result cache weigh against a ~10 ms sequential estimate.",
		backend: "daemon", eps: 0.05, minOps: 20,
		gen: func(sz sizes) *graph.Graph { return rmat(sz.smallScale) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is a workload after set-up: the generated graph in the form the
// ops consume it, plus what the probes need to call the layers directly.
type instance struct {
	spec *workload
	g    *graph.Graph  // the LCC (the unweighted skeleton on weighted-seq)
	wg   *graph.WGraph // weighted-seq only
	w    betweenness.Workload
	kw   kadabra.Workload // the same problem, for the layer probes

	mapped *graph.Mapped // social-shm: owns the mapping behind g
	daemon *daemon       // daemon-session
	// layers holds the per-layer metrics measured during set-up.
	layers map[string]float64
}

func (in *instance) close() {
	if in.daemon != nil {
		in.daemon.close()
	}
	if in.mapped != nil {
		path := in.mapped.Path()
		in.mapped.Close()
		os.Remove(path)
	}
}

// bind wraps g (and, on a weighted workload, its random weights) as the
// public and the internal workload value.
func (in *instance) bind(g *graph.Graph, seed uint64) {
	in.g = g
	if in.spec.weighted {
		in.wg = graph.RandomWeights(g, maxWeight, seed)
		in.w, in.kw = betweenness.Weighted(in.wg), kadabra.WeightedWorkload(in.wg)
		return
	}
	in.w, in.kw = betweenness.Undirected(g), kadabra.UndirectedWorkload(g)
}

// setup generates the workload's input and brings it into the state the ops
// run against. Everything here is timed as setup_s by the
// caller, the correctness reference included.
func (w *workload) setup(ctx context.Context, cfg runConfig, tr *tracer, parent int) (*instance, error) {
	in := &instance{spec: w, layers: make(map[string]float64)}
	timed := func(metric string, scale float64, fn func() error) error {
		sp := tr.begin(metric, parent, -1, 0)
		start := time.Now()
		err := fn()
		in.layers[metric] += time.Since(start).Seconds() * scale
		tr.end(sp)
		return err
	}

	var g *graph.Graph
	timed("gen.generate_s", 1, func() error { g = w.gen(cfg.size); return nil })
	if err := timed("graph.lcc_s", 1, func() (err error) { g, _, err = graph.LargestComponent(g); return }); err != nil {
		return nil, err
	}
	if w.mapped {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d.bcsr2", w.name, cfg.seed))
		if err := timed("bigio.write_s", 1, func() error { return writeBCSR2(path, g) }); err != nil {
			return nil, err
		}
		if err := timed("bigio.open_ms", 1e3, func() (err error) { in.mapped, err = graph.OpenMapped(path); return }); err != nil {
			return nil, err
		}
		g = in.mapped.Graph()
	}
	timed("gen.generate_s", 1, func() error { in.bind(g, cfg.seed); return nil })
	in.layers["graph.nodes"] = float64(g.NumNodes())
	in.layers["graph.edges"] = float64(g.NumEdges())

	sp := tr.begin("correctness_reference", parent, -1, 0)
	defer tr.end(sp)
	var err error
	if w.backend == "daemon" {
		in.daemon, in.layers["server.upload_ms"], err = startDaemon(ctx, in, cfg.outDir, false, cfg.seed)
	} else {
		err = in.twinCheck(ctx, cfg)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func writeBCSR2(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBCSR2(f, g, graph.WriteOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twinCheck is the correctness reference of a library workload: a small twin
// from the same generator is estimated with the workload's kind, backend and
// eps, and every estimate must lie within eps of exact Brandes.
func (in *instance) twinCheck(ctx context.Context, cfg runConfig) error {
	w := in.spec
	tg, _, err := graph.LargestComponent(w.twin(cfg.size))
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	twin := &instance{spec: w}
	twin.bind(tg, cfg.seed)
	op := twin.libraryOp(ctx, cfg.seed, nil, -1, -1)
	if reason := op.failure(w.eps, nil); reason != "" {
		return fmt.Errorf("twin: %s", reason)
	}
	var exact []float64
	if w.weighted {
		exact = betweenness.ExactWeighted(twin.wg, 2)
	} else {
		exact = betweenness.Exact(tg, 2)
	}
	if rep := betweenness.Compare(exact, op.estimates, w.eps); rep.MaxAbs > w.eps {
		return fmt.Errorf("twin: max error %.4g at vertex %d exceeds eps %g", rep.MaxAbs, rep.ArgMax, w.eps)
	}
	return nil
}

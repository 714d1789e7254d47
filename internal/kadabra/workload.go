package kadabra

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/diameter"
	"repro/internal/epoch"
	"repro/internal/graph"
	"repro/internal/rng"
)

// SampleInto takes one sample with s and records it into sf: tau always
// advances, and each internal vertex of a connected sample bumps its count
// through the sparse frame API. This is the steady-state hot path of every
// thread — the coordinator and the workers of every rank in
// internal/core — hoisted to a plain function so the compiler
// keeps it allocation-free (see TestSampleSteadyStateZeroAlloc).
//
//bc:hotpath
func SampleInto(s Sampler, sf *epoch.StateFrame) {
	internal, ok := s.Sample()
	sf.Tau++
	if ok {
		for _, v := range internal {
			sf.Bump(v)
		}
	}
}

// This file is the workload abstraction behind every KADABRA variant. The
// paper's footnote 1 observes that the parallelization applies unchanged to
// directed and weighted graphs once the sampling kernel is swapped; the
// abstraction makes that literal: a Workload bundles the two graph-dependent
// ingredients — the per-thread path sampler and the phase-1 vertex-diameter
// bound — and the generic drivers (EstimatorState here; Algorithm2 in
// internal/core) carry the statistical
// machinery, context cancellation, and the OnEpoch progress hook for all of
// them.

// Sampler is the per-thread sampling kernel: one call draws a uniform
// random vertex pair and a uniform shortest path between them, returning
// the path's internal vertices (ok=false when the pair is unreachable; the
// sample still counts toward tau).
type Sampler interface {
	Sample() (internal []graph.Node, ok bool)
}

// Workload is one estimation scenario over a fixed graph: the vertex count,
// an independent-sampler factory, and the graph's phase-1 vertex-diameter
// bound. Construct one with UndirectedWorkload, DirectedWorkload, or
// WeightedWorkload; the zero value is not runnable. Copies share one
// diameter memo (and an unweighted workload's kernel memo), so build a
// workload once per graph and reuse it.
type Workload struct {
	// NewSampler builds an independent sampling kernel over the graph with
	// its own RNG stream; each sampling thread gets one. A copy of the
	// workload may decorate it (the tests count and record draws that
	// way); a decorator must keep the sampling distribution for the
	// (eps, delta) guarantee to carry over.
	NewSampler func(r *rng.Rand) Sampler
	// n is the number of vertices.
	n int
	// diameter memoizes the vertex-diameter bound, a deterministic
	// property of the graph.
	diameter *diameterMemo
	// kernel memoizes an unweighted workload's per-graph kernel data, the
	// data NewSampler reads; nil on the weighted workload.
	kernel *kernelMemo
}

// diameterMemo resolves a workload's vertex-diameter bound on first use.
type diameterMemo struct {
	once    sync.Once
	resolve func() int
	vd      int
}

// N returns the number of vertices of the underlying graph.
func (w Workload) N() int { return w.n }

// ResolveDiameter returns the workload's vertex-diameter bound (or the
// cfg.VertexDiameter override) and the time this call spent computing it:
// the bound is computed once per workload, by the first call, and every
// later call, on any copy, returns it with a zero duration.
func (w Workload) ResolveDiameter(cfg Config) (int, time.Duration) {
	if cfg.VertexDiameter > 0 {
		return cfg.VertexDiameter, 0
	}
	var took time.Duration
	m := w.diameter
	m.once.Do(func() {
		start := time.Now()
		m.vd = m.resolve()
		took = time.Since(start)
	})
	return m.vd, took
}

// Validate rejects workloads the estimator cannot run: the zero Workload
// and graphs with fewer than two vertices.
func (w Workload) Validate() error {
	if w.NewSampler == nil || w.diameter == nil {
		return fmt.Errorf("kadabra: zero workload (use a workload constructor)")
	}
	if w.n < 2 {
		return fmt.Errorf("kadabra: need at least 2 vertices, got %d", w.n)
	}
	return nil
}

// UndirectedWorkload wraps the paper's standard scenario, unweighted
// shortest paths on an undirected graph. Its diameter phase is exact: iFUB
// with eccentricity-bound pruning, ~20 BFS sweeps on a 120x120 lattice, ~6
// on R-MAT 2^16.
//
// Its sampling kernel is chosen once per graph, by the first sampler any
// copy of the value builds. A double sweep from the max-degree vertex
// bounds the diameter from below; when the bound exceeds 2·⌈log2 n⌉, the
// graph grows its balls polynomially, like a lattice or a road network,
// not like a small world, and every sampler is the goal-directed ALT A*
// (bfs.GoalSampler), steered by bfs.NumLandmarks = 4 landmarks: the sweep's
// two endpoints plus two farthest-point picks, 16 bytes per vertex shared
// read-only (bfs.NumLandmarks says why four). They settle about 1.2x the
// s-t shortest-path DAG on a lattice.
// Otherwise it is the balanced bidirectional BFS (bfs.Sampler), which on a
// small world meets after a few levels, and the same first call builds the
// graph's hub matrix (bfs.Hubs), 4n + K²/8 bytes shared read-only, K =
// min(n, ⌊√(8m)⌋): 889 KiB of matrix on R-MAT 2^16, at most m bytes on any
// graph. On the benchmark's 120x120 lattice the bound is 238 against 28, on
// R-MAT 2^16 it is 7 against 32. The choice is a seed-free function of the
// graph, so every rank, a restored checkpoint and a cached workload make the
// same one.
func UndirectedWorkload(g *graph.Graph) Workload {
	k := &kernelMemo{resolve: func() kernelData {
		if lm := goalLandmarks(g); lm != nil {
			return kernelData{lm: lm}
		}
		return kernelData{hubs: bfs.NewHubs(g)}
	}}
	return Workload{
		n: g.NumNodes(),
		NewSampler: func(r *rng.Rand) Sampler {
			d := k.data()
			if d.lm != nil {
				return bfs.NewGoalSampler(g, d.lm, r)
			}
			return bfs.NewSampler(g, d.hubs, r)
		},
		diameter: &diameterMemo{resolve: func() int { return diameter.VertexDiameter(g) }},
		kernel:   k,
	}
}

// kernelData is the read-only per-graph data an unweighted workload's
// samplers share: the goal kernel's landmarks, or else the bidirectional
// BFS's hub matrix.
type kernelData struct {
	lm   *bfs.Landmarks
	hubs *bfs.Hubs
}

// kernelMemo resolves an unweighted workload's kernel data on first use.
type kernelMemo struct {
	once    sync.Once
	resolve func() kernelData
	d       kernelData
}

func (k *kernelMemo) data() kernelData {
	k.once.Do(func() { k.d = k.resolve() })
	return k.d
}

// goalLandmarks returns the goal kernel's landmarks when g's double-sweep
// diameter bound exceeds 2·⌈log2 n⌉, and nil otherwise.
func goalLandmarks(g *graph.Graph) *bfs.Landmarks {
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	ecc, u, v := diameter.DoubleSweep(g, g.MaxDegreeNode())
	if int(ecc) <= 2*bits.Len(uint(n-1)) {
		return nil
	}
	return bfs.NewLandmarks(g, u, v)
}

// DirectedWorkload swaps in the bidirectional sampler over out-arcs and the
// stored transpose. The digraph must be strongly connected (graph.LargestSCC)
// for the vertex-diameter bound to be valid. The first sampler any copy
// builds also builds the digraph's hub matrix (bfs.Hubs), 4n + K²/8 bytes
// shared read-only by every sampler, K = min(n, ⌊√(8m)⌋) over its m arcs.
func DirectedWorkload(g *graph.Digraph) Workload {
	k := &kernelMemo{resolve: func() kernelData { return kernelData{hubs: bfs.NewDirectedHubs(g)} }}
	return Workload{
		n: g.NumNodes(),
		NewSampler: func(r *rng.Rand) Sampler {
			return bfs.NewDirectedSampler(g, k.data().hubs, r)
		},
		diameter: &diameterMemo{resolve: func() int { return DirectedVertexDiameter(g) }},
		kernel:   k,
	}
}

// WeightedWorkload swaps in the Dijkstra-based sampler. The graph must be
// connected with positive weights. Its weight-ordered arc view is built here,
// once, and shared read-only by every sampler and the diameter phase.
func WeightedWorkload(g *graph.WGraph) Workload {
	arcs := bfs.SortArcsByWeight(g)
	return Workload{
		n: g.NumNodes(),
		NewSampler: func(r *rng.Rand) Sampler {
			return bfs.NewWeightedSampler(arcs, r)
		},
		diameter: &diameterMemo{resolve: func() int { return WeightedVertexDiameter(arcs) }},
	}
}

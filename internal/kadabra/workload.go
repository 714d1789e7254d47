package kadabra

import (
	"fmt"
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
// driver — sequential, shared-memory coordinator and workers, and the MPI
// ranks in internal/core — hoisted to a plain function so the compiler
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
// an independent-sampler factory, and the phase-1 vertex-diameter resolver.
// Construct one with UndirectedWorkload, DirectedWorkload, or
// WeightedWorkload; the zero value is not runnable.
type Workload struct {
	// n is the number of vertices.
	n int
	// newSampler builds an independent sampling kernel over the graph; each
	// sampling thread gets its own kernel with a split RNG stream.
	newSampler func(r *rng.Rand) Sampler
	// vertexDiameter computes the phase-1 vertex-diameter bound (only
	// called when cfg.VertexDiameter does not override it).
	vertexDiameter func(cfg Config) int
}

// N returns the number of vertices of the underlying graph.
func (w Workload) N() int { return w.n }

// NewSampler builds an independent sampling kernel with its own RNG stream.
func (w Workload) NewSampler(r *rng.Rand) Sampler { return w.newSampler(r) }

// ResolveDiameter runs phase 1 for the workload (or uses the precomputed
// cfg.VertexDiameter override) and reports the time spent.
func (w Workload) ResolveDiameter(cfg Config) (int, time.Duration) {
	if cfg.VertexDiameter > 0 {
		return cfg.VertexDiameter, 0
	}
	start := time.Now()
	vd := w.vertexDiameter(cfg)
	return vd, time.Since(start)
}

// Validate rejects workloads the estimator cannot run: the zero Workload
// and graphs with fewer than two vertices.
func (w Workload) Validate() error {
	if w.newSampler == nil || w.vertexDiameter == nil {
		return fmt.Errorf("kadabra: zero workload (use a workload constructor)")
	}
	if w.n < 2 {
		return fmt.Errorf("kadabra: need at least 2 vertices, got %d", w.n)
	}
	return nil
}

// WrapSampler returns a copy of the workload whose samplers are wrapped by
// wrap. It is an instrumentation seam — the fault-injection tests use it to
// count exactly how many samples each kernel drew and compare against the
// folded tau. The wrapper must preserve the sampling distribution for the
// (eps, delta) guarantee to carry over.
func (w Workload) WrapSampler(wrap func(Sampler) Sampler) Workload {
	inner := w.newSampler
	w.newSampler = func(r *rng.Rand) Sampler { return wrap(inner(r)) }
	return w
}

// UndirectedWorkload wraps the paper's standard scenario: bidirectional BFS
// sampling on an undirected graph. Its diameter phase is exact (iFUB with
// eccentricity-bound pruning: ~20 BFS sweeps on a 120x120 lattice, ~6 on
// R-MAT 2^16) unless cfg.DiameterBFSCap bounds the fringe sweeps, the
// escape hatch for inputs where even that is too slow; the directed and
// weighted bounds below are constant-sweep heuristics.
func UndirectedWorkload(g *graph.Graph) Workload {
	return Workload{
		n: g.NumNodes(),
		newSampler: func(r *rng.Rand) Sampler {
			return bfs.NewSampler(g, r)
		},
		vertexDiameter: func(cfg Config) int {
			// A cap of 0 runs iFUB to the exact diameter.
			d, _ := diameter.IFUB(g, cfg.DiameterBFSCap)
			return int(d) + 1
		},
	}
}

// DirectedWorkload swaps in the bidirectional sampler over out-arcs and the
// stored transpose. The digraph must be strongly connected (graph.LargestSCC)
// for the vertex-diameter bound to be valid.
func DirectedWorkload(g *graph.Digraph) Workload {
	return Workload{
		n: g.NumNodes(),
		newSampler: func(r *rng.Rand) Sampler {
			return bfs.NewDirectedSampler(g, r)
		},
		vertexDiameter: func(cfg Config) int {
			return DirectedVertexDiameter(g)
		},
	}
}

// WeightedWorkload swaps in the Dijkstra-based sampler. The graph must be
// connected with positive weights. Its weight-ordered arc view is built here,
// once, and shared read-only by every sampler and the diameter phase.
func WeightedWorkload(g *graph.WGraph) Workload {
	arcs := bfs.SortArcsByWeight(g)
	return Workload{
		n: g.NumNodes(),
		newSampler: func(r *rng.Rand) Sampler {
			return bfs.NewWeightedSampler(arcs, r)
		},
		vertexDiameter: func(cfg Config) int {
			return WeightedVertexDiameter(arcs, cfg.Seed+0xABCD)
		},
	}
}

package betweenness

import (
	"fmt"

	"repro/graph"
	"repro/internal/kadabra"
)

// WorkloadKind tags one of the estimation scenarios of the paper's
// footnote 1. Every backend runs every kind.
type WorkloadKind int

const (
	// WorkloadUndirected is the paper's standard scenario: shortest paths
	// on an undirected, unweighted graph (bidirectional BFS sampling).
	WorkloadUndirected WorkloadKind = iota
	// WorkloadDirected samples shortest directed paths on a strongly
	// connected digraph (forward over out-arcs, backward over the stored
	// transpose).
	WorkloadDirected
	// WorkloadWeighted samples minimum-weight paths on a connected,
	// positively weighted undirected graph (Dijkstra-based sampling).
	WorkloadWeighted
)

func (k WorkloadKind) String() string {
	switch k {
	case WorkloadUndirected:
		return "undirected"
	case WorkloadDirected:
		return "directed"
	case WorkloadWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// Workload is a tagged estimation scenario over a fixed graph: the paper's
// undirected, directed, or weighted betweenness problem, bundled with its
// validation rule (connectivity / strong connectivity), its sampling-kernel
// factory, and its vertex-diameter resolver. Construct one with Undirected,
// Directed, or Weighted and run it on any backend with Estimate or
// NewEstimator; the zero value is rejected by every entry point.
type Workload struct {
	kind WorkloadKind
	n    int
	// inner carries the sampler factory and diameter resolver consumed by
	// the generic drivers (internal/kadabra and internal/core).
	inner kadabra.Workload
	// validate is the workload's admission rule, checked once per session
	// before any backend runs: strong connectivity for directed,
	// connectivity for weighted (one O(V+E) pass each).
	validate func() error
	// digest computes the graph's content hash on demand (see Digest).
	digest func() string
	// err records a construction failure (nil graph); surfaced by every
	// entry point so constructors stay chainable.
	err error
}

// Kind returns the scenario tag.
func (w Workload) Kind() WorkloadKind { return w.kind }

// NumNodes returns the vertex count of the underlying graph (0 for an
// invalid or zero workload).
func (w Workload) NumNodes() int { return w.n }

// Err returns the construction error, if any (e.g. a nil graph).
func (w Workload) Err() error { return w.err }

// Digest returns a stable content hash of the workload's graph
// ("sha256:<hex>", domain-separated by kind): two workloads with equal
// digests are the same estimation problem, which makes the digest a sound
// cache key for results keyed additionally by the statistical parameters
// (the betweennessd result cache does exactly that). The hash walks the
// whole CSR, so callers should memoize it per graph rather than calling it
// per request. It is "" for the zero or invalid workload.
func (w Workload) Digest() string {
	if w.digest == nil {
		return ""
	}
	return w.digest()
}

// checkRunnable is the guard every session applies on construction: the
// workload must have been built by a constructor, over a graph large enough
// for the settings (see checkSize), and its admission rule (strong
// connectivity / connectivity) must hold, so no session can produce
// estimates whose (eps, delta) guarantee is void.
func (w Workload) checkRunnable(s settings) error {
	if w.err != nil {
		return w.err
	}
	if w.inner.N() == 0 {
		return fmt.Errorf("betweenness: zero workload (use Undirected, Directed, or Weighted)")
	}
	if err := checkSize(w.n, s); err != nil {
		return err
	}
	return w.validate()
}

// Undirected wraps an undirected graph as the paper's standard workload.
// No connectivity requirement: the sampler tolerates unreachable pairs
// (they count toward tau with no internal vertices). Reduce to the largest component first
// (graph.LargestComponent) for the tight vertex-diameter bound.
func Undirected(g *graph.Graph) Workload {
	if g == nil {
		return Workload{kind: WorkloadUndirected, err: fmt.Errorf("betweenness: nil graph")}
	}
	return Workload{
		kind:     WorkloadUndirected,
		n:        g.NumNodes(),
		inner:    kadabra.UndirectedWorkload(g),
		validate: func() error { return nil },
		digest:   g.Digest,
	}
}

// Directed wraps a strongly connected digraph as the directed workload.
// Strong connectivity is the workload's validation rule — checked once per
// session (one O(V+E) pass) because the vertex-diameter bound behind
// the sample budget is only valid there; reduce arbitrary inputs with
// graph.LargestSCC first.
func Directed(g *graph.Digraph) Workload {
	if g == nil {
		return Workload{kind: WorkloadDirected, err: fmt.Errorf("betweenness: nil digraph")}
	}
	return Workload{
		kind:   WorkloadDirected,
		n:      g.NumNodes(),
		inner:  kadabra.DirectedWorkload(g),
		digest: g.Digest,
		validate: func() error {
			if _, sizes := graph.StronglyConnectedComponents(g); len(sizes) != 1 {
				return fmt.Errorf(
					"betweenness: digraph is not strongly connected (%d SCCs); reduce with graph.LargestSCC first",
					len(sizes))
			}
			return nil
		},
	}
}

// Weighted wraps a connected, positively weighted undirected graph as the
// weighted workload. Connectivity is the workload's validation rule —
// checked once per session (one O(V+E) pass) so the vertex-diameter
// probe behind the sample budget is valid; reduce arbitrary inputs with
// graph.LargestComponentW first. Construction sorts every vertex's arcs by
// weight into a view the samplers share (8 bytes per arc), so build the
// workload once per graph and reuse it across estimates.
func Weighted(g *graph.WGraph) Workload {
	if g == nil {
		return Workload{kind: WorkloadWeighted, err: fmt.Errorf("betweenness: nil weighted graph")}
	}
	return Workload{
		kind:   WorkloadWeighted,
		n:      g.NumNodes(),
		inner:  kadabra.WeightedWorkload(g),
		digest: g.Digest,
		validate: func() error {
			if !graph.IsConnected(g.Unweighted()) {
				return fmt.Errorf(
					"betweenness: weighted graph is not connected; reduce with graph.LargestComponentW first")
			}
			return nil
		},
	}
}

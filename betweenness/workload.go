package betweenness

import (
	"errors"
	"fmt"

	"repro/graph"
	"repro/internal/kadabra"
)

// WorkloadKind tags one of the estimation scenarios of the paper's
// footnote 1. Every built-in backend reports the kinds it can run via
// Executor.Capabilities; EstimateWorkload rejects a mismatch with
// ErrUnsupportedWorkload before any work starts.
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

// ErrUnsupportedWorkload reports that an executor cannot run the requested
// workload kind. EstimateWorkload returns it (wrapped with the backend name
// and the kind) whenever a workload is dispatched to a backend whose
// Capabilities do not list that kind; test with errors.Is.
var ErrUnsupportedWorkload = errors.New("betweenness: unsupported workload")

// UnsupportedWorkloadError is the concrete dispatch error: it names the
// backend and the workload kind as fields (extract with errors.As) and
// matches ErrUnsupportedWorkload under errors.Is, so callers never have
// to parse the message text.
type UnsupportedWorkloadError struct {
	// Backend is the executor's Name().
	Backend string
	// Kind is the workload kind the backend cannot run.
	Kind WorkloadKind
}

func (e *UnsupportedWorkloadError) Error() string {
	return fmt.Sprintf("%s: backend %q cannot run the %s workload", ErrUnsupportedWorkload, e.Backend, e.Kind)
}

// Is makes errors.Is(err, ErrUnsupportedWorkload) hold for the typed
// error.
func (e *UnsupportedWorkloadError) Is(target error) bool {
	return target == ErrUnsupportedWorkload
}

// unsupportedWorkload builds the typed dispatch error.
func unsupportedWorkload(backend string, kind WorkloadKind) error {
	return &UnsupportedWorkloadError{Backend: backend, Kind: kind}
}

// Workload is a tagged estimation scenario over a fixed graph: the paper's
// undirected, directed, or weighted betweenness problem, bundled with its
// validation rule (connectivity / strong connectivity), its sampling-kernel
// factory, and its vertex-diameter resolver. Construct one with Undirected,
// Directed, or Weighted and run it on any capable backend with
// EstimateWorkload; the zero value is rejected by every entry point.
type Workload struct {
	kind WorkloadKind
	n    int
	// inner carries the sampler factory and diameter resolver consumed by
	// the generic drivers (internal/kadabra and internal/core).
	inner kadabra.Workload
	// validate is the workload's admission rule, checked once per Estimate
	// call before any backend runs: strong connectivity for directed,
	// connectivity for weighted (one O(V+E) pass each).
	validate func() error
	// digest computes the graph's content hash on demand (see Digest).
	digest func() string
	// err records a construction failure (nil graph); surfaced by
	// EstimateWorkload so constructors stay chainable.
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

// checkRunnable is the guard every backend applies on entry: the workload
// must have been built by a constructor, over a non-degenerate graph, its
// kind must be listed in the executor's capabilities, and its admission
// rule (strong connectivity / connectivity) must hold — so even a direct
// Executor.Run call cannot produce estimates whose (eps, delta) guarantee
// is void. EstimateWorkload applies the same guard up front; the repeated
// O(V+E) validation pass is negligible next to the sampling phase.
func (w Workload) checkRunnable(e Executor) error {
	if w.err != nil {
		return w.err
	}
	if w.inner.N() == 0 {
		return fmt.Errorf("betweenness: zero workload (use Undirected, Directed, or Weighted)")
	}
	if w.n < 2 {
		return fmt.Errorf("betweenness: need at least 2 vertices, got %d", w.n)
	}
	if !kindSupported(e.Capabilities(), w.kind) {
		return unsupportedWorkload(e.Name(), w.kind)
	}
	return w.validate()
}

func kindSupported(caps []WorkloadKind, kind WorkloadKind) bool {
	for _, k := range caps {
		if k == kind {
			return true
		}
	}
	return false
}

// Undirected wraps an undirected graph as the paper's standard workload.
// No connectivity requirement: the sampler tolerates unreachable pairs
// (they count toward tau with no internal vertices), matching Estimate's
// historical semantics. Reduce to the largest component first
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
// Estimate call (one O(V+E) pass) because the vertex-diameter bound behind
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
// checked once per Estimate call (one O(V+E) pass) so the vertex-diameter
// probe behind the sample budget is valid; reduce arbitrary inputs with
// graph.LargestComponentW first.
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

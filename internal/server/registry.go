package server

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/betweenness"
	"repro/graph"
)

// graphEntry is one named, immutable graph shared by any number of
// sessions. Exactly one of und/dig/wgt is set, matching kind. The refs
// counter protects the graph from deletion under a live session: sessions
// take a reference at creation and release it at deletion, and
// DELETE /graphs/{name} refuses while refs > 0. The CSR itself needs no
// locking — it is immutable, which is the same property that lets sampler
// goroutines share it without synchronization.
type graphEntry struct {
	name   string
	kind   betweenness.WorkloadKind
	digest string
	nodes  int
	edges  int
	// reduced reports whether registration shrank the upload to its
	// largest (strongly) connected component.
	reduced bool
	refs    int

	// und is an atomic pointer because it is the one graph field rewritten
	// after registration: persistGraph swaps the upload's heap CSR for the
	// mmap of the persisted BCSR v2 file, while sessions may concurrently
	// read it (buildSession) without holding srv.mu. Both values are
	// immutable, so the pointer swap is the only synchronization needed.
	und atomic.Pointer[graph.Graph]
	dig *graph.Digraph
	wgt *graph.WGraph

	// mapped, when non-nil, is the mmap handle und is served from: the
	// persisted BCSR v2 file, opened after registration (or at startup
	// rehydration) so sessions share the page cache instead of a heap
	// copy. Closed when the entry is deleted; the refs counter already
	// guarantees no session outlives it.
	mapped *graph.Mapped

	// work is the graph's one workload, built by the first session that
	// needs it and shared by every later one, so the work a workload does
	// once per value — the weighted arc sort, the phase-1 vertex-diameter
	// bound — is done once per graph.
	workOnce sync.Once
	work     betweenness.Workload
}

// closeMapping releases the entry's mmap, if any. Call only once the
// entry has left the registry with refs == 0.
func (g *graphEntry) closeMapping() {
	if g.mapped != nil {
		g.mapped.Close()
		g.mapped = nil
	}
}

// workload returns the graph's tagged workload, built on first use. The
// first estimate on it resolves the vertex-diameter bound, and every later
// session reuses it. An undirected workload is built over whatever und
// holds then: normally the mapping persistGraph swapped in, but a session
// that raced the swap keeps the heap copy it was built over, bound and all.
func (g *graphEntry) workload() betweenness.Workload {
	g.workOnce.Do(func() {
		switch g.kind {
		case betweenness.WorkloadDirected:
			g.work = betweenness.Directed(g.dig)
		case betweenness.WorkloadWeighted:
			g.work = betweenness.Weighted(g.wgt)
		default:
			g.work = betweenness.Undirected(g.und.Load())
		}
	})
	return g.work
}

// parseKind resolves the ?kind= upload parameter.
func parseKind(s string) (betweenness.WorkloadKind, error) {
	switch s {
	case "undirected":
		return betweenness.WorkloadUndirected, nil
	case "directed":
		return betweenness.WorkloadDirected, nil
	case "weighted":
		return betweenness.WorkloadWeighted, nil
	default:
		return 0, fmt.Errorf("unknown workload kind %q (want undirected|directed|weighted)", s)
	}
}

// buildGraphEntry parses an upload stream into a registered-graph entry:
// sniff the format, honour an explicit kind override, parse with the
// matching reader, and reduce to the largest (strongly) connected
// component so every session's workload validation rule holds by
// construction — the same normalization bcapprox applies.
//
// kindGiven distinguishes "no ?kind=" (format decides) from an explicit
// override: a two-column text upload is ambiguous between edge list and
// arc list, so ?kind=directed is how a headerless arc list is registered.
func buildGraphEntry(name string, r io.Reader, kindStr string) (*graphEntry, error) {
	format, r, err := graph.DetectFormat(r)
	if err != nil {
		return nil, fmt.Errorf("sniffing upload: %w", err)
	}

	kind := betweenness.WorkloadUndirected
	switch format {
	case graph.FormatBCSR:
		return nil, fmt.Errorf("BCSR v1 uploads are not read; convert the file to v2 with graphconv first")
	case graph.FormatArcList:
		kind = betweenness.WorkloadDirected
	case graph.FormatWeightedEdgeList:
		kind = betweenness.WorkloadWeighted
	case graph.FormatUnknown:
		if kindStr == "" {
			return nil, fmt.Errorf("%w (pass ?kind= and a recognizable body)", graph.ErrFormatUnknown)
		}
	}
	if kindStr != "" {
		override, err := parseKind(kindStr)
		if err != nil {
			return nil, err
		}
		if format == graph.FormatBCSR2 && override != betweenness.WorkloadUndirected {
			return nil, fmt.Errorf("BCSR uploads are undirected; cannot register as %s", override)
		}
		if format == graph.FormatWeightedEdgeList && override == betweenness.WorkloadDirected {
			return nil, fmt.Errorf("a weighted edge list cannot be registered as directed")
		}
		kind = override
	}

	e := &graphEntry{name: name, kind: kind}
	switch kind {
	case betweenness.WorkloadDirected:
		g, err := graph.ReadArcList(r)
		if err != nil {
			return nil, err
		}
		scc, _, err := graph.LargestSCC(g)
		if err != nil {
			return nil, err
		}
		e.reduced = scc.NumNodes() != g.NumNodes()
		e.dig, e.nodes, e.edges, e.digest = scc, scc.NumNodes(), scc.NumArcs(), scc.Digest()
	case betweenness.WorkloadWeighted:
		g, err := graph.ReadWeightedEdgeList(r)
		if err != nil {
			return nil, err
		}
		lcc, _, err := graph.LargestComponentW(g)
		if err != nil {
			return nil, err
		}
		e.reduced = lcc.NumNodes() != g.NumNodes()
		e.wgt, e.nodes, e.edges, e.digest = lcc, lcc.NumNodes(), lcc.NumEdges(), lcc.Digest()
	default:
		var g *graph.Graph
		switch format {
		case graph.FormatBCSR2:
			// Upload bodies are streams, so the v2 image decodes in
			// memory here; the persisted copy is what sessions are
			// served from by mmap (see Server.persistGraph).
			g, err = graph.ReadBCSR2(r)
		default:
			g, err = graph.ReadEdgeList(r)
		}
		if err != nil {
			return nil, err
		}
		lcc, _, err := graph.LargestComponent(g)
		if err != nil {
			return nil, err
		}
		e.reduced = lcc.NumNodes() != g.NumNodes()
		e.und.Store(lcc)
		e.nodes, e.edges, e.digest = lcc.NumNodes(), lcc.NumEdges(), lcc.Digest()
	}
	if e.name == "" {
		// Content-addressed default: stable across re-uploads of the same
		// graph, which makes idempotent registration natural.
		e.name = "g-" + strings.TrimPrefix(e.digest, "sha256:")[:12]
	}
	return e, nil
}

// kindString is the wire spelling of a workload kind (matches parseKind).
func kindString(k betweenness.WorkloadKind) string { return k.String() }

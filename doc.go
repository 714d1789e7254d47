// Package repro is a from-scratch Go reproduction of "Scaling Betweenness
// Approximation to Billions of Edges by MPI-based Adaptive Sampling"
// (van der Grinten & Meyerhenke, IPDPS 2020).
//
// The public API lives in two root packages:
//
//   - repro/betweenness — estimation scenarios are first-class Workload
//     values (Undirected, Directed, Weighted — the paper's footnote-1
//     scenarios) run through one front door,
//     betweenness.Estimate(ctx, w, opts...), or held as a session
//     (NewEstimator). The execution backend is one of three: SharedMemory
//     (Sequential is its one-thread shape), LocalMPI and TCP, and each
//     runs all three workloads. Exact Brandes ground truth (Exact,
//     ExactDirected, ExactWeighted) and accuracy reports round out the
//     package.
//   - repro/graph — the CSR graph types (Graph, Digraph, WGraph),
//     builder, file loaders (edge lists, arc lists, weighted edge
//     lists, BCSR binaries), connectivity and diameter routines, and
//     the synthetic generators behind the paper's Table I plus
//     RandomDigraph/RandomWeights for the new workloads.
//
// The algorithm implementations live under internal/ and are reached only
// through the public packages. There is one engine, the paper's
// Algorithm 2 (internal/core): every backend runs it, the single-process
// ones on a one-rank in-process world, and at one thread per rank it is the
// paper's Algorithm 1. Its thread choreography is written once, in
// internal/epoch's Driver, which examples/adaptivesampling also runs on.
// Executables are under cmd/ (bcapprox, bcexact, graphgen, graphconv,
// graphinfo, betweennessd, repolint); runnable examples under examples/.
// bench/ (its own module, declared in BENCHMARK.json) is the repository's
// benchmark.
//
// # High-diameter graphs sample goal-directed
//
// The paper's hard inputs are high-diameter graphs, where the balanced
// bidirectional BFS grows two balls of radius about d(s,t)/2 to count the
// paths of a thin s-t shortest-path DAG. An undirected workload therefore
// chooses its sampling kernel once per graph, with no option to set: when a
// double sweep from the max-degree vertex bounds the diameter above
// 2·⌈log2 n⌉, the graph grows its balls polynomially (a lattice, a road
// network), and every sampler is an A* toward t under an ALT potential from
// four landmarks (the sweep's two endpoints and two farthest-point picks,
// 16 bytes per vertex shared by every thread); otherwise it is the
// bidirectional BFS. Four landmarks settle about 1.2x the DAG on a
// lattice; two (the sweep's endpoints) bound one axis only, and more than
// three measure alike. The search
// settles in (key, g) order over a three-level integer bucket queue and
// counts exact path counts, so the drawn path is uniform as before. The
// rule is a seed-free function of the graph: every rank, a restored
// checkpoint and a cached daemon workload choose the same kernel.
//
// # Per-epoch cost is proportional to what was sampled
//
// An epoch increments only ~n0 × avg-path-length distinct vertices, so the
// epoch machinery is sparse end to end: state frames maintain a
// touched-vertex list on first increment (reset/aggregate in O(touched),
// with an automatic dense fallback past n/8 touched vertices so huge
// epochs never regress — the one frame mode there is; nothing pins a frame
// dense), the per-epoch MPI reduction ships frames as
// varint (vertex-delta, count) pairs through a variable-length merge
// reduction (bytes scale with samples, not with |V| — on a ~150k-vertex
// graph a TCP rank ships ~2.4 kB per epoch instead of the dense ~1.2 MB),
// and the stopping check is amortized O(1) per epoch (cached logs, the
// last failing vertex re-checked first, descending-calibration-count sweep
// order — with a mandatory full sweep before it may answer "stop", since
// the paper's f/g bounds are not monotone in the state). Calibration and
// checkpoint restore share one derivation of that state, over the groups
// of vertices with equal budgets, so phase 2 costs O(n) plus a term per
// distinct calibration count rather than per vertex. Result.Distributed
// reports both the dense-equivalent CommVolumePerEpoch bound and the
// actual ReduceWireBytes. bench/README.md says how to measure each layer.
//
// # Communication overlaps sampling one sample at a time
//
// Algorithm 2's thread 0 samples "while IBARRIER / IBCAST is not done".
// In internal/mpi the poll is Request.Test, and Test is the progress
// call: when the operation is not complete it yields the processor once,
// so the goroutine that runs the collective and the TCP readers advance
// after every sample the poller takes, not once per scheduler quantum.
// The contract for any code written against internal/mpi: poll with Test;
// it yields.
//
// # Anytime estimation sessions
//
// The adaptive loop holds a valid (eps', delta) guarantee after every
// epoch, and the session API exposes it: betweenness.NewEstimator returns
// a resumable handle that validates the workload, then owns the sampling
// state across calls. The vertex-diameter bound is a deterministic
// property of the graph, resolved once per Workload value and reused by
// every estimator built on it (betweennessd keeps one workload per
// registered graph) —
//
//	est, _ := betweenness.NewEstimator(betweenness.Undirected(g),
//	        betweenness.WithEpsilon(0.01),
//	        betweenness.WithMaxDuration(2*time.Second))
//	res, _ := est.Run(ctx)              // target eps OR budget, whichever first
//	snap := est.Snapshot()              // estimates + achieved eps, any time
//	res, _ = est.Refine(ctx,            // tighter target, every sample reused
//	        betweenness.WithEpsilon(0.001))
//	_ = est.Checkpoint(file)            // survive restarts ...
//	est2, _ := betweenness.RestoreEstimator(file, betweenness.Undirected(g))
//
// Estimate is literally NewEstimator followed by one Run. Budgets
// (WithMaxSamples, WithMaxDuration) work on every backend — including the
// MPI/TCP ones, where rank 0 folds the budget stop into the termination
// broadcast — and an early-stopped Result reports Converged == false with
// the honestly achieved guarantee in AchievedEps. Sessions are resumable
// (Refine/Checkpoint/repeated Run, live Snapshot) on every backend —
// one state machine (kadabra.EstimatorState) advanced by the one engine,
// Algorithm 2: world rank 0 keeps the consistent state between runs, and
// every engine stops within one epoch of a deadline. Every state follows one
// check schedule; Sequential is SharedMemory pinned at one thread. A checkpoint records
// threads, ranks and stopping rule (WithTopK on any backend and workload
// swaps the uniform rule for the certified top-k one), so a session
// resumes on the backend that wrote it. A one-thread session resumed from a
// checkpoint in a fresh process is bit-identical to the uninterrupted run;
// every other resume is statistically equivalent (a capture whose RNG
// streams were in use continues on streams re-derived from seed, tau and
// worker index). Checkpoints are versioned (the previous payload
// version still restores) and CRC-protected; corrupted or version-skewed
// bytes error out instead of panicking.
//
// # Betweenness as a service
//
// cmd/betweennessd serves all of the above over HTTP: named graphs
// (uploaded once, shared immutably across sessions, content-addressed via
// Workload.Digest), named estimation sessions driven asynchronously with a
// bounded worker pool as admission control, per-epoch progress over SSE, an
// LRU result cache keyed by (graph digest, workload, eps, delta, seed), and
// checkpoint-backed durability — SIGTERM drains running sessions into their
// checkpoint files and a restart resumes them without losing samples. See
// internal/server and the README's "Running as a service" section.
//
// # Billion-edge ingest
//
// The paper's target instances (billions of edges) never fit the
// parse-everything loader, so ingest is split in two: graph.NewConverter
// (cmd/graphconv) externally sorts an edge stream into the page-aligned
// on-disk BCSR v2 format in memory bounded by its sort budget rather than
// the edge count, and graph.OpenMapped memory-maps the result — an O(1)
// open (header parse plus an offsets-monotonicity scan, no adjacency
// touch) that serves the CSR zero-copy off the page cache. Every writer in
// the module (graph.SaveFile on a .bcsr path included) emits v2; the older
// BCSR v1 is read only by graphconv, to convert it. graph.LoadFile
// routes v2 files through the mapped path automatically, estimators
// fault pages in lazily as samples walk the graph, and betweennessd
// persists undirected uploads as BCSR v2 and serves sessions off the
// shared mapping. graphgen -stream pipes the synthetic generators through
// the converter so arbitrarily large test instances never materialize in
// memory. See the README's "Billion-edge ingest" section for the format
// and the memory model.
//
// # Static analysis
//
// The invariants the sections above rely on — allocation-free sampling
// kernels, the sparse-frame write protocol, typed fault handling, threaded
// cancellation, the public-API layering, and the mapped-graph memory
// discipline, and exported names that earn a caller — are machine-enforced
// by a repo-specific analyzer suite under internal/analysis (ctxleak,
// deadexport, epochframe, hotpathalloc, layerimport, mmapsafe, rankdead),
// built and run once by CI over the whole tree, test files included, via
// `repolint ./...` (cmd/repolint).
// Hot functions are annotated //bc:hotpath; a deliberate root context is
// justified in place with //bc:ctxok <reason>. Run scripts/lint.sh (or
// `go run ./cmd/repolint ./...`) locally; the tree must come out clean.
// See the README's "Static analysis" section for the invariant catalogue.
package repro

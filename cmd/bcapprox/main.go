// Command bcapprox approximates betweenness centrality with the KADABRA
// family of algorithms reproduced in this repository, through the public
// repro/betweenness API.
//
// Backends (any backend runs any workload):
//
//	-backend seq   sequential KADABRA: one thread on one rank, the same
//	               samples as -backend shm -threads 1
//	-backend shm   shared-memory epoch-based parallelization (the paper's
//	               baseline, Ref. 24)
//	-backend dist  epoch-based MPI parallelization (paper Algorithm 2) over
//	               -procs in-process ranks; with -threads 1 it is the
//	               pure-MPI parallelization (paper Algorithm 1)
//	-backend tcp   Algorithm 2 as one rank of a TCP world: requires -rank
//	               and -hosts (comma-separated host:port list, one per
//	               rank); start one OS process per rank
//
// With -certify-top, any backend stops by the certified top-k rule for
// -top instead of the uniform eps rule and reports whether the top set
// separated.
//
// Workloads (paper footnote 1; valid with every backend, including the
// MPI and TCP ones — the workload-generic executor contract threads the
// swapped sampling kernel through the distributed drivers):
//
//	-directed    directed betweenness on a digraph: -graph reads an arc
//	             list ("u v" = u->v), -gen accepts scc:n=..,m=..; the
//	             largest strongly connected component is used
//	-weighted    weighted betweenness: -graph reads a weighted edge list
//	             ("u v w", positive integer weights); with -gen, uniform
//	             weights in [1, -maxw] are assigned to the generated graph
//
// Input is either -graph FILE (text edge list or .bcsr binary) or a
// generator spec via -gen. The file format is sniffed: a weighted edge
// list ("u v w") selects the weighted workload and an arc list written by
// this repository (its "# directed graph" header) selects the directed
// one, without needing the flags; explicit -directed/-weighted always win
// (a headerless two-column file is ambiguous between edge list and arc
// list, so direction needs the flag there). Examples:
//
//	-gen rmat:scale=16,ef=16  -gen hyp:n=100000,deg=30  -gen road:rows=300,cols=300
//
// Anytime estimation (sessions, budgets, checkpoints):
//
//	-max-samples N     stop after N samples and report the achieved
//	                   guarantee (any backend)
//	-max-duration D    stop after roughly D of wall clock, e.g. 30s
//	                   (any backend)
//	-checkpoint PATH   persist the session state to PATH (any backend) —
//	                   on Ctrl-C the work done so far is saved instead of
//	                   discarded, and a completed run saves its final
//	                   state for later refinement
//	-resume PATH       continue a -checkpoint session on the backend that
//	                   wrote it (a one-thread session resumes as seq, or
//	                   as shm with -backend shm); the statistical identity
//	                   (eps, delta, seed, threads, ranks, stopping rule)
//	                   comes from the checkpoint, and explicitly passed -eps/-delta
//	                   refine the resumed session toward the new target,
//	                   reusing every prior sample. A tcp session resumes
//	                   with -backend tcp -rank/-hosts on every rank (rank
//	                   0's file is the one that counts)
//
// Fault tolerance (dist/tcp): a rank death mid-run is absorbed by the
// shrink-and-recalibrate recovery protocol — the world shrinks to the
// survivors and the run completes with the full (eps, delta) guarantee.
// The one failure that cannot be absorbed in-run is the death of rank 0
// (the coordinator); bound its cost with
//
//	-dist-checkpoint-interval N   with -checkpoint PATH: every N epochs
//	                              atomically overwrite PATH with a
//	                              checkpoint of the running session (each
//	                              process writes its own copy: once for
//	                              -backend dist, one per rank for tcp).
//	                              After a crash, restart from it with
//	                              -resume PATH on the same backend — at
//	                              most N epochs of samples are lost
//
// Ctrl-C cancels a running estimate cleanly within one epoch of the
// sampling loops (the diameter phase runs to completion first; bound it
// on large graphs by precomputing with graphinfo or using a generator
// with a known small diameter).
//
// Examples:
//
//	bcapprox -gen rmat:scale=14,ef=16 -eps 0.01 -backend dist -procs 4 -threads 6 -top 10
//	bcapprox -directed -gen scc:n=100000,m=1000000 -backend dist -procs 4
//	bcapprox -weighted -gen road:rows=300,cols=300 -maxw 10 -backend shm
//	bcapprox -directed -gen scc:n=50000,m=500000 -backend tcp -rank 0 -hosts h0:9000,h1:9000
//	bcapprox -gen rmat:scale=16,ef=16 -eps 0.001 -backend shm -checkpoint run.bck
//	bcapprox -gen rmat:scale=16,ef=16 -backend shm -resume run.bck -eps 0.0005
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/memprof"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file (edge list or .bcsr; arc list with -directed; weighted edge list with -weighted)")
		genSpec   = flag.String("gen", "", "generator spec, e.g. rmat:scale=14,ef=16 (scc:n=..,m=.. with -directed)")
		directed  = flag.Bool("directed", false, "directed betweenness over shortest directed paths (any backend)")
		weighted  = flag.Bool("weighted", false, "weighted betweenness over minimum-weight paths (any backend)")
		maxW      = flag.Uint64("maxw", 10, "with -weighted -gen: assign uniform weights in [1, maxw]")
		eps       = flag.Float64("eps", 0.01, "absolute approximation error")
		delta     = flag.Float64("delta", 0.1, "failure probability")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		backend   = flag.String("backend", "shm", "seq | shm | dist | tcp")
		procs     = flag.Int("procs", 2, "processes for dist mode")
		threads   = flag.Int("threads", 4, "sampling threads per process")
		ranksPer  = flag.Int("ranks-per-node", 0, "enable hierarchical aggregation with this group size")
		topK      = flag.Int("top", 10, "print the top-k vertices")
		certify   = flag.Bool("certify-top", false, "stop by the certified top-k rule for -top instead of the uniform eps rule, on any backend and workload (budgets, -checkpoint and -resume work as usual; the rule is part of the checkpoint)")
		progress  = flag.Bool("progress", false, "print a progress line per epoch (epoch, tau, achieved eps, samples/s)")
		rank      = flag.Int("rank", -1, "this process's rank (tcp mode)")
		hosts     = flag.String("hosts", "", "comma-separated host:port per rank (tcp mode)")

		maxSamples = flag.Int64("max-samples", 0, "stop after this many samples and report the achieved guarantee (0 = until eps)")
		maxDur     = flag.Duration("max-duration", 0, "stop after this much wall clock and report the achieved guarantee (0 = until eps)")
		ckptPath   = flag.String("checkpoint", "", "persist the session here, on Ctrl-C and on completion (tcp: rank 0's copy holds the samples), and every -dist-checkpoint-interval epochs in between")
		resumePath = flag.String("resume", "", "resume a -checkpoint session on the backend that wrote it (tcp: pass -backend tcp again); explicit -eps/-delta refine it")
		distCkpt   = flag.Int("dist-checkpoint-interval", 0, "dist/tcp: also write the session to -checkpoint every N epochs while it runs (0 = off)")
		memstats   = flag.Bool("memstats", false, "print heap and resident-set stats before exiting (the ingest smoke test's RSS bound)")
	)
	flag.Parse()
	// A mapped input graph (BCSR v2 via graph.LoadFile) should show up in
	// rss, not heap-sys — that asymmetry is what -memstats exists to verify.
	reportMem := func() {
		if *memstats {
			memprof.Read().Report(os.Stdout)
		}
	}
	defer reportMem()
	// Resuming takes the statistical identity from the checkpoint; an
	// explicitly passed -eps/-delta becomes a refinement target instead.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *directed && *weighted {
		fatal(fmt.Errorf("-directed and -weighted are mutually exclusive: there is no weighted-digraph workload"))
	}

	// Format autodetection: a -graph file with no explicit workload flag
	// picks its workload from the sniffed format, so arc lists and weighted
	// edge lists work without -directed/-weighted. Explicit flags always
	// win (including an explicit -directed=false).
	if *graphPath != "" && !explicit["directed"] && !explicit["weighted"] {
		switch format, err := graph.DetectFormatFile(*graphPath); {
		case err != nil:
			fatal(err)
		case format == graph.FormatArcList:
			*directed = true
			fmt.Printf("detected %s input: running the directed workload\n", format)
		case format == graph.FormatWeightedEdgeList:
			*weighted = true
			fmt.Printf("detected %s input: running the weighted workload\n", format)
		}
	}

	opts := []betweenness.Option{
		betweenness.WithEpsilon(*eps),
		betweenness.WithDelta(*delta),
		betweenness.WithSeed(*seed),
		betweenness.WithThreads(*threads),
	}
	if *ranksPer > 1 {
		opts = append(opts, betweenness.WithHierarchical(*ranksPer))
	}
	if *maxSamples > 0 {
		opts = append(opts, betweenness.WithMaxSamples(*maxSamples))
	}
	if *maxDur > 0 {
		opts = append(opts, betweenness.WithMaxDuration(*maxDur))
	}
	if *progress {
		opts = append(opts, betweenness.WithProgress(func(s betweenness.Snapshot) {
			fmt.Printf("  epoch %4d: tau=%d eps'=%.4f %.0f samples/s\n",
				s.Epoch, s.Tau, s.AchievedEps, s.SamplesPerSec)
		}))
	}
	if *certify {
		opts = append(opts, betweenness.WithTopK(*topK))
	}

	var exec betweenness.Executor
	switch *backend {
	case "seq":
		exec = betweenness.Sequential()
	case "shm":
		exec = betweenness.SharedMemory()
	case "dist":
		exec = betweenness.LocalMPI(*procs)
	case "tcp":
		if *rank < 0 || *hosts == "" {
			fatal(fmt.Errorf("tcp backend requires -rank and -hosts"))
		}
		exec = betweenness.TCP(*rank, strings.Split(*hosts, ","))
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	if *resumePath == "" || explicit["backend"] {
		// A checkpoint names its own backend; -backend on -resume picks tcp,
		// or shm over seq for a one-thread session.
		opts = append(opts, betweenness.WithExecutor(exec))
	}

	if *distCkpt < 0 {
		fatal(fmt.Errorf("-dist-checkpoint-interval must be >= 0, got %d", *distCkpt))
	}
	if *distCkpt > 0 {
		switch *backend {
		case "dist", "tcp":
		default:
			fatal(fmt.Errorf("-dist-checkpoint-interval needs an MPI backend (dist or tcp), got %q", *backend))
		}
		if *ckptPath == "" {
			fatal(fmt.Errorf("-dist-checkpoint-interval needs -checkpoint PATH as the destination"))
		}
		// The sink overwrites the same file atomically each interval, so
		// after a crash (including a rank-0 death, the one failure the
		// in-run recovery cannot absorb) the newest complete checkpoint is
		// on disk, restartable with -resume. The library calls it once per
		// process and interval.
		path := *ckptPath
		opts = append(opts, betweenness.WithDistCheckpoint(*distCkpt, func(payload []byte) {
			if err := writeBlob(path, payload); err != nil {
				fmt.Fprintln(os.Stderr, "bcapprox: distributed checkpoint:", err)
			}
		}))
	}
	// In a TCP world the session's samples live at rank 0; the other ranks
	// have nothing worth saving when a run ends (they do keep the periodic
	// copies rank 0 broadcasts).
	saveTo := *ckptPath
	if *backend == "tcp" && *rank != 0 {
		saveTo = ""
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Build the tagged workload; every backend runs it through the one
	// workload-generic front door.
	var w betweenness.Workload
	switch {
	case *directed:
		g, err := loadDigraph(*graphPath, *genSpec)
		if err != nil {
			fatal(err)
		}
		g, _, err = graph.LargestSCC(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("digraph: %d nodes, %d arcs (largest strongly connected component)\n",
			g.NumNodes(), g.NumArcs())
		w = betweenness.Directed(g)
	case *weighted:
		if *genSpec != "" && (*maxW < 1 || *maxW > math.MaxUint32) {
			fatal(fmt.Errorf("-maxw must be in [1, %d], got %d", uint64(math.MaxUint32), *maxW))
		}
		g, err := loadWGraph(*graphPath, *genSpec, uint32(*maxW), *seed)
		if err != nil {
			fatal(err)
		}
		g, _, err = graph.LargestComponentW(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("weighted graph: %d nodes, %d edges (largest connected component)\n",
			g.NumNodes(), g.NumEdges())
		w = betweenness.Weighted(g)
	default:
		g, err := loadGraph(*graphPath, *genSpec)
		if err != nil {
			fatal(err)
		}
		g, _, err = graph.LargestComponent(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d nodes, %d edges (largest connected component)\n", g.NumNodes(), g.NumEdges())
		w = betweenness.Undirected(g)
	}

	start := time.Now()
	var (
		est *betweenness.Estimator
		err error
	)
	if *resumePath != "" {
		est, err = restoreSession(*resumePath, w, opts)
	} else {
		est, err = betweenness.NewEstimator(w, opts...)
	}
	if err != nil {
		fatal(err)
	}

	var res *betweenness.Result
	if *resumePath != "" && (explicit["eps"] || explicit["delta"]) {
		// Resume-and-refine: tighten toward the explicitly requested
		// target, reusing every sample of the checkpointed session. Only
		// the flags the user actually passed are refined — the rest of
		// the statistical identity stays with the checkpoint.
		var refineOpts []betweenness.Option
		if explicit["eps"] {
			refineOpts = append(refineOpts, betweenness.WithEpsilon(*eps))
		}
		if explicit["delta"] {
			refineOpts = append(refineOpts, betweenness.WithDelta(*delta))
		}
		res, err = est.Refine(ctx, refineOpts...)
	} else {
		res, err = est.Run(ctx)
	}
	if err != nil {
		// SIGINT with a checkpoint path: persist the completed work
		// instead of discarding it.
		if errors.Is(err, context.Canceled) && saveTo != "" {
			if werr := writeCheckpoint(est, saveTo); werr != nil {
				fatal(werr)
			}
			snap := est.Snapshot()
			fmt.Printf("\ninterrupted: session saved to %s (tau=%d, eps'=%.4f) — continue with -resume %s\n",
				saveTo, snap.Tau, snap.AchievedEps, saveTo)
			return
		}
		fatal(err)
	}
	if saveTo != "" {
		if werr := writeCheckpoint(est, saveTo); werr != nil {
			fatal(werr)
		}
		fmt.Printf("session saved to %s (refine it later with -resume)\n", saveTo)
	}
	if res.Estimates == nil {
		// TCP mode, non-root rank: the result lives at rank 0.
		fmt.Println("rank done (result at rank 0)")
		return
	}

	fmt.Printf("done in %v [%s]: tau=%d omega=%.0f vertex-diameter=%d\n",
		time.Since(start).Round(time.Millisecond), res.Backend, res.Tau, res.Omega, res.VertexDiameter)
	if res.Converged {
		fmt.Printf("guarantee: converged, achieved eps'=%.6f\n", res.AchievedEps)
	} else {
		fmt.Printf("guarantee: budget stop before the target eps — achieved eps'=%.6f (resume or refine to tighten)\n",
			res.AchievedEps)
	}
	fmt.Printf("phases: diameter=%v calibration=%v sampling=%v\n",
		res.Timings.Diameter.Round(time.Millisecond),
		res.Timings.Calibration.Round(time.Millisecond),
		res.Timings.Sampling.Round(time.Millisecond))
	if d := res.Distributed; d != nil {
		fmt.Printf("epochs: %d, barrier wait: %v, reduce: %v, comm/epoch: %.2f MiB\n",
			d.Epochs, d.BarrierWait, d.ReduceTime,
			float64(d.CommVolumePerEpoch)/(1<<20))
	}
	if *certify {
		fmt.Printf("top-%d certified separation: %v\n", *topK, res.Separated)
	}
	fmt.Printf("top-%d vertices by approximate betweenness:\n", *topK)
	for i, v := range res.TopK(*topK) {
		fmt.Printf("  %2d. vertex %8d  b~ = %.6f\n", i+1, v, res.Estimates[v])
	}
}

// loadGraph resolves the -graph/-gen flags for the undirected path.
func loadGraph(path, spec string) (*graph.Graph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("pass either -graph or -gen, not both")
	case path != "":
		return graph.LoadFile(path)
	case spec != "":
		return ParseGenSpec(spec)
	default:
		return nil, fmt.Errorf("need -graph FILE or -gen SPEC")
	}
}

// loadDigraph resolves the flags for -directed: an arc-list file or the
// scc:n=..,m=.. generator.
func loadDigraph(path, spec string) (*graph.Digraph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("pass either -graph or -gen, not both")
	case path != "":
		return graph.LoadDigraphFile(path)
	case spec != "":
		return ParseDigraphGenSpec(spec)
	default:
		return nil, fmt.Errorf("need -graph FILE (arc list) or -gen scc:n=..,m=..")
	}
}

// loadWGraph resolves the flags for -weighted: a weighted edge-list file,
// or any undirected generator spec with uniform random weights layered on.
func loadWGraph(path, spec string, maxW uint32, seed uint64) (*graph.WGraph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("pass either -graph or -gen, not both")
	case path != "":
		return graph.LoadWGraphFile(path)
	case spec != "":
		g, err := ParseGenSpec(spec)
		if err != nil {
			return nil, err
		}
		return graph.RandomWeights(g, maxW, seed+0x9E37), nil
	default:
		return nil, fmt.Errorf("need -graph FILE (weighted edge list) or -gen SPEC with -maxw")
	}
}

// restoreSession opens a -resume checkpoint and rebinds it to the workload.
func restoreSession(path string, w betweenness.Workload, opts []betweenness.Option) (*betweenness.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return betweenness.RestoreEstimator(f, w, opts...)
}

// writeCheckpoint persists the session to path.
func writeCheckpoint(est *betweenness.Estimator, path string) error {
	var buf bytes.Buffer
	if err := est.Checkpoint(&buf); err != nil {
		return err
	}
	return writeBlob(path, buf.Bytes())
}

// writeBlob atomically and durably replaces path with the given bytes: a
// sealed checkpoint, from Checkpoint or from the periodic sink. The temp
// file is fsynced before the rename and the directory after it, so a
// machine crash leaves the old checkpoint or the new one; a failed write
// removes the temp file.
func writeBlob(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcapprox:", err)
	os.Exit(1)
}

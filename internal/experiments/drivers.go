package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/brandes"
	"repro/internal/diameter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// NodeCounts is the paper's x-axis for Figures 2 and 3.
var NodeCounts = []int{1, 2, 4, 8, 16}

// simCfg returns the KADABRA config used by the simulated-cluster
// experiments. EpochBase is lowered so the scaled instances still span
// several epochs at 16 nodes (see the package comment on scaling). The
// diameter phase runs exact iFUB, whose eccentricity pruning keeps it to a
// few dozen sweeps on the road proxies.
func simCfg(eps float64, seed uint64) kadabra.Config {
	return kadabra.Config{Eps: eps, Delta: 0.1, Seed: seed, EpochBase: 250}
}

// TableI prints the instance-property table (paper Table I): nodes, edges,
// exact diameter.
func TableI(w io.Writer, insts []*Instance) error {
	fmt.Fprintf(w, "## Table I: instances (proxies for the paper's graphs)\n\n")
	fmt.Fprintf(w, "| instance | proxies | |V| | |E| | diameter |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	for _, in := range insts {
		g := in.Graph()
		d := diameter.IFUB(g)
		fmt.Fprintf(w, "| %s | %s | %d | %d | %d |\n",
			in.Name, in.PaperName, g.NumNodes(), g.NumEdges(), d)
	}
	return nil
}

// TableII prints the per-instance statistics of a 16-node run (paper Table
// II): epochs, samples, barrier seconds, MiB/epoch, adaptive-sampling
// seconds — all on the virtual cluster.
func TableII(w io.Writer, insts []*Instance, nodes int) error {
	fmt.Fprintf(w, "## Table II: per-instance statistics on %d virtual nodes\n\n", nodes)
	fmt.Fprintf(w, "| instance | Ep. | Samples | B (s) | Com. (MiB/ep) | ADS time (s) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	for _, in := range insts {
		res, err := simnet.Simulate(in.Graph(), simnet.DefaultModel(nodes), simCfg(in.Eps, 1))
		if err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		fmt.Fprintf(w, "| %s | %d | %d | %.3f | %.2f | %.3f |\n",
			in.Name, res.Epochs, res.Tau,
			res.Times.Barrier.Seconds(),
			float64(res.CommVolumePerEpoch)/(1<<20),
			res.Times.Sampling.Seconds())
	}
	return nil
}

// scalingRun holds one instance's sweep over node counts plus its baseline.
type scalingRun struct {
	inst     *Instance
	baseline *simnet.Result
	perNode  map[int]*simnet.Result
}

// sweepCache memoizes simulation sweeps within one process: Figures 2a, 2b,
// 3a and 3b all consume the same runs, and a full-suite sweep takes minutes.
var (
	sweepMu    sync.Mutex
	sweepCache = map[*Instance]*scalingRun{}
)

func sweep(insts []*Instance, nodeCounts []int) ([]*scalingRun, error) {
	runs := make([]*scalingRun, 0, len(insts))
	for _, in := range insts {
		sweepMu.Lock()
		r := sweepCache[in]
		if r == nil {
			r = &scalingRun{inst: in, perNode: map[int]*simnet.Result{}}
			sweepCache[in] = r
		}
		sweepMu.Unlock()
		if r.baseline == nil {
			base, err := simnet.SimulateSharedMemoryBaseline(in.Graph(), simnet.DefaultModel(1), simCfg(in.Eps, 1))
			if err != nil {
				return nil, fmt.Errorf("%s baseline: %w", in.Name, err)
			}
			r.baseline = base
		}
		for _, nc := range nodeCounts {
			if r.perNode[nc] != nil {
				continue
			}
			res, err := simnet.Simulate(in.Graph(), simnet.DefaultModel(nc), simCfg(in.Eps, 1))
			if err != nil {
				return nil, fmt.Errorf("%s nodes=%d: %w", in.Name, nc, err)
			}
			r.perNode[nc] = res
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Fig2a prints the overall speedup of the epoch-based MPI algorithm over
// the shared-memory state of the art, per node count (geometric mean over
// instances) — paper Figure 2a.
func Fig2a(w io.Writer, insts []*Instance, nodeCounts []int) error {
	runs, err := sweep(insts, nodeCounts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 2a: overall speedup vs shared-memory baseline (geom. mean over %d instances)\n\n", len(insts))
	fmt.Fprintf(w, "| nodes | speedup |\n|---|---|\n")
	for _, nc := range nodeCounts {
		var sp []float64
		for _, r := range runs {
			sp = append(sp, r.baseline.Times.Total().Seconds()/r.perNode[nc].Times.Total().Seconds())
		}
		fmt.Fprintf(w, "| %d | %.2fx |\n", nc, stats.GeomMean(sp))
	}
	return nil
}

// Fig2b prints the running-time breakdown per node count (paper Figure 2b):
// mean fraction of total time per phase, bottom-to-top as in the paper.
func Fig2b(w io.Writer, insts []*Instance, nodeCounts []int) error {
	runs, err := sweep(insts, nodeCounts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 2b: running-time breakdown (mean fractions)\n\n")
	fmt.Fprintf(w, "| nodes | diameter | calibration | transition | ibarrier | reduce | check | sampling(rest) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, nc := range nodeCounts {
		var fr [7]float64
		for _, r := range runs {
			t := r.perNode[nc].Times
			total := t.Total().Seconds()
			overlapPlusWork := t.Sampling - t.Transition - t.Barrier - t.Reduce - t.Check
			fr[0] += t.Diameter.Seconds() / total
			fr[1] += t.Calibration.Seconds() / total
			fr[2] += t.Transition.Seconds() / total
			fr[3] += t.Barrier.Seconds() / total
			fr[4] += t.Reduce.Seconds() / total
			fr[5] += t.Check.Seconds() / total
			fr[6] += overlapPlusWork.Seconds() / total
		}
		n := float64(len(runs))
		fmt.Fprintf(w, "| %d | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
			nc, fr[0]/n, fr[1]/n, fr[2]/n, fr[3]/n, fr[4]/n, fr[5]/n, fr[6]/n)
	}
	return nil
}

// Fig3a prints the per-phase speedups (adaptive sampling and calibration)
// over the shared-memory baseline — paper Figure 3a.
func Fig3a(w io.Writer, insts []*Instance, nodeCounts []int) error {
	runs, err := sweep(insts, nodeCounts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 3a: per-phase speedup vs baseline (geom. mean)\n\n")
	fmt.Fprintf(w, "| nodes | ADS | calibration |\n|---|---|---|\n")
	for _, nc := range nodeCounts {
		var ads, cal []float64
		for _, r := range runs {
			ads = append(ads, r.baseline.Times.Sampling.Seconds()/r.perNode[nc].Times.Sampling.Seconds())
			cal = append(cal, r.baseline.Times.Calibration.Seconds()/r.perNode[nc].Times.Calibration.Seconds())
		}
		fmt.Fprintf(w, "| %d | %.2fx | %.2fx |\n", nc, stats.GeomMean(ads), stats.GeomMean(cal))
	}
	return nil
}

// Fig3b prints sampling throughput per node (samples/(time*P)) per node
// count — paper Figure 3b; near-flat lines mean linear scaling.
func Fig3b(w io.Writer, insts []*Instance, nodeCounts []int) error {
	runs, err := sweep(insts, nodeCounts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 3b: ADS samples/(second * node)\n\n")
	fmt.Fprintf(w, "| instance |")
	for _, nc := range nodeCounts {
		fmt.Fprintf(w, " P=%d |", nc)
	}
	fmt.Fprintf(w, "\n|---|")
	for range nodeCounts {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "\n")
	for _, r := range runs {
		fmt.Fprintf(w, "| %s |", r.inst.Name)
		for _, nc := range nodeCounts {
			fmt.Fprintf(w, " %.0f |", r.perNode[nc].SamplesPerSecPerNode)
		}
		fmt.Fprintf(w, "\n")
	}
	return nil
}

// Fig4Scales lists the |V| exponents for the synthetic sweeps; the paper
// uses 2^23..2^26, this reproduction 2^13..2^16 (the same 8x span, 1000x
// smaller).
var Fig4Scales = []int{13, 14, 15, 16}

// Fig4 prints adaptive-sampling time per vertex against graph size on
// synthetic graphs with |E| = 30 |V| — paper Figure 4. kind is "rmat" or
// "hyperbolic".
func Fig4(w io.Writer, kind string, scales []int, nodes int) error {
	fmt.Fprintf(w, "## Fig 4 (%s): ADS time per vertex vs graph size (%d virtual nodes)\n\n", kind, nodes)
	fmt.Fprintf(w, "| log2|V| | |V| | |E| | ADS time (s) | time/|V| (µs) |\n|---|---|---|---|---|\n")
	for _, s := range scales {
		var g *graph.Graph
		switch kind {
		case "rmat":
			g = gen.RMAT(gen.Graph500(s, 30, uint64(200+s)))
		case "hyperbolic":
			g = gen.Hyperbolic(gen.HyperbolicParams{N: 1 << s, AvgDegree: 60, Gamma: 3, Seed: uint64(300 + s)})
		default:
			return fmt.Errorf("experiments: unknown Fig4 kind %q", kind)
		}
		g, _ = graph.LargestComponent(g)
		res, err := simnet.Simulate(g, simnet.DefaultModel(nodes), simCfg(0.01, 2))
		if err != nil {
			return err
		}
		perV := res.Times.Sampling.Seconds() / float64(g.NumNodes()) * 1e6
		fmt.Fprintf(w, "| %d | %d | %d | %.3f | %.3f |\n",
			s, g.NumNodes(), g.NumEdges(), res.Times.Sampling.Seconds(), perV)
	}
	return nil
}

// NUMA reproduces the single-node observation of §IV-E: one MPI process per
// socket vs the socket-spanning shared-memory configuration.
func NUMA(w io.Writer, insts []*Instance) error {
	fmt.Fprintf(w, "## Ablation A1: single-node NUMA placement (paper §IV-E: 20-30%% expected)\n\n")
	fmt.Fprintf(w, "| instance | shm (spanning) ADS (s) | MPI 1 proc/socket ADS (s) | speedup |\n|---|---|---|---|\n")
	for _, in := range insts {
		m := simnet.DefaultModel(1)
		shm, err := simnet.SimulateSharedMemoryBaseline(in.Graph(), m, simCfg(in.Eps, 3))
		if err != nil {
			return err
		}
		mpi, err := simnet.Simulate(in.Graph(), m, simCfg(in.Eps, 3))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.2fx |\n", in.Name,
			shm.Times.Sampling.Seconds(), mpi.Times.Sampling.Seconds(),
			shm.Times.Sampling.Seconds()/mpi.Times.Sampling.Seconds())
	}
	return nil
}

// Accuracy validates the (eps, delta) guarantee against Brandes on
// instances small enough for exact computation (ablation A4).
func Accuracy(w io.Writer, insts []*Instance, maxNodes int) error {
	fmt.Fprintf(w, "## Ablation A4: accuracy vs exact Brandes (guarantee: max err <= eps w.p. 0.9)\n\n")
	fmt.Fprintf(w, "| instance | eps | max abs err | mean abs err | top-10 overlap |\n|---|---|---|---|---|\n")
	for _, in := range insts {
		g := in.Graph()
		if g.NumNodes() > maxNodes {
			continue
		}
		exactStart := time.Now()
		exact := brandes.Parallel(g, 0)
		_ = exactStart
		res, err := simnet.Simulate(g, simnet.DefaultModel(16), simCfg(in.Eps, 4))
		if err != nil {
			return err
		}
		rep := stats.CompareScores(exact, res.Betweenness, in.Eps)
		overlap := stats.TopKOverlap(exact, res.Betweenness, 10)
		fmt.Fprintf(w, "| %s | %.3f | %.5f | %.6f | %.2f |\n",
			in.Name, in.Eps, rep.MaxAbs, rep.MeanAbs, overlap)
	}
	return nil
}

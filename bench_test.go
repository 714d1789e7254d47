// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus ablation baselines. The benchmarks exercise the
// same drivers as cmd/experiments but on the miniature BenchSuite
// instances so a full -bench=. run finishes in minutes; run
// cmd/experiments for the full-scale regeneration.
//
// Custom metrics reported where meaningful: "speedup" (vs the shared-memory
// baseline or between configurations), "samples/s", "epochs".
package repro

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/simnet"
)

// benchCfg is the shared KADABRA parameterization for bench instances.
func benchCfg(eps float64, seed uint64) kadabra.Config {
	return kadabra.Config{Eps: eps, Delta: 0.1, Seed: seed, EpochBase: 250}
}

// runSharedMemory is one fresh shared-memory session run once, on a
// one-rank world.
func runSharedMemory(b *testing.B, w kadabra.Workload, threads int, cfg kadabra.Config) *kadabra.Result {
	b.Helper()
	st, err := kadabra.NewEstimatorState(w, threads, cfg)
	if err == nil {
		_, err = core.RunLocal(context.Background(), []*kadabra.EstimatorState{st}, core.Config{})
	}
	if err != nil {
		b.Fatal(err)
	}
	return st.Result()
}

// runDist is one fresh distributed session run once on procs in-process
// ranks.
func runDist(b *testing.B, w kadabra.Workload, procs int, cfg core.Config) *core.Result {
	b.Helper()
	sts, err := core.NewStates(w, procs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunLocal(context.Background(), sts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchModel returns the virtual-cluster model with a FIXED per-sample cost
// so single-iteration benchmark metrics are deterministic; the full-scale
// runs with empirically measured costs live in cmd/experiments.
func benchModel(nodes int) simnet.Model {
	m := simnet.DefaultModel(nodes)
	m.FixedSampleCost = 20 * time.Microsecond
	m.FixedSampleStd = 10 * time.Microsecond
	return m
}

// --- Table I -------------------------------------------------------------

// BenchmarkTableI measures instance construction plus the exact diameter
// (the statistics of paper Table I) over the miniature suite.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.TableI(io.Discard, experiments.BenchSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II ------------------------------------------------------------

// BenchmarkTableII regenerates the per-instance 16-node statistics (epochs,
// samples, barrier seconds, communication volume, ADS time).
func BenchmarkTableII(b *testing.B) {
	for _, in := range experiments.BenchSuite() {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			g := in.Graph()
			for i := 0; i < b.N; i++ {
				res, err := simnet.Simulate(g, benchModel(16), benchCfg(in.Eps, 1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Epochs), "epochs")
				b.ReportMetric(float64(res.Tau), "samples")
				b.ReportMetric(float64(res.CommVolumePerEpoch)/(1<<20), "MiB/epoch")
			}
		})
	}
}

// --- Figure 2a -----------------------------------------------------------

// BenchmarkFig2a measures the overall virtual-cluster speedup over the
// shared-memory baseline at each node count of the paper's sweep.
func BenchmarkFig2a(b *testing.B) {
	for _, nodes := range experiments.NodeCounts {
		b.Run(nodeLabel(nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sp float64
				for _, in := range experiments.BenchSuite() {
					base, err := simnet.SimulateSharedMemoryBaseline(in.Graph(), benchModel(1), benchCfg(in.Eps, 1))
					if err != nil {
						b.Fatal(err)
					}
					res, err := simnet.Simulate(in.Graph(), benchModel(nodes), benchCfg(in.Eps, 1))
					if err != nil {
						b.Fatal(err)
					}
					sp += base.Times.Total().Seconds() / res.Times.Total().Seconds()
				}
				b.ReportMetric(sp/float64(len(experiments.BenchSuite())), "speedup")
			}
		})
	}
}

// --- Figure 2b -----------------------------------------------------------

// BenchmarkFig2b regenerates the phase breakdown at each node count and
// reports the fraction of time that is non-overlapped communication.
func BenchmarkFig2b(b *testing.B) {
	for _, nodes := range experiments.NodeCounts {
		b.Run(nodeLabel(nodes), func(b *testing.B) {
			in := experiments.BenchSuite()[1] // social instance
			g := in.Graph()
			for i := 0; i < b.N; i++ {
				res, err := simnet.Simulate(g, benchModel(nodes), benchCfg(in.Eps, 1))
				if err != nil {
					b.Fatal(err)
				}
				total := res.Times.Total().Seconds()
				b.ReportMetric(res.Times.Diameter.Seconds()/total, "frac-diameter")
				b.ReportMetric(res.Times.Calibration.Seconds()/total, "frac-calibration")
				b.ReportMetric(res.Times.Reduce.Seconds()/total, "frac-reduce")
			}
		})
	}
}

// --- Figure 3a -----------------------------------------------------------

// BenchmarkFig3a reports the adaptive-sampling-phase speedup (the paper's
// headline 16.1x at 16 nodes) per node count.
func BenchmarkFig3a(b *testing.B) {
	for _, nodes := range experiments.NodeCounts {
		b.Run(nodeLabel(nodes), func(b *testing.B) {
			in := experiments.BenchSuite()[1]
			g := in.Graph()
			for i := 0; i < b.N; i++ {
				base, err := simnet.SimulateSharedMemoryBaseline(g, benchModel(1), benchCfg(in.Eps, 1))
				if err != nil {
					b.Fatal(err)
				}
				res, err := simnet.Simulate(g, benchModel(nodes), benchCfg(in.Eps, 1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(base.Times.Sampling.Seconds()/res.Times.Sampling.Seconds(), "ads-speedup")
				b.ReportMetric(base.Times.Calibration.Seconds()/res.Times.Calibration.Seconds(), "calib-speedup")
			}
		})
	}
}

// --- Figure 3b -----------------------------------------------------------

// BenchmarkFig3b reports sampling throughput per virtual node; near-constant
// values across node counts mean linear ADS scaling.
func BenchmarkFig3b(b *testing.B) {
	for _, nodes := range experiments.NodeCounts {
		b.Run(nodeLabel(nodes), func(b *testing.B) {
			in := experiments.BenchSuite()[1]
			g := in.Graph()
			for i := 0; i < b.N; i++ {
				res, err := simnet.Simulate(g, benchModel(nodes), benchCfg(in.Eps, 1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SamplesPerSecPerNode, "samples/s/node")
			}
		})
	}
}

// --- Figure 4 ------------------------------------------------------------

// benchFig4 sweeps synthetic graph sizes at |E| = 30|V| and reports ADS
// time per vertex (microseconds), the paper's Fig. 4 y-axis.
func benchFig4(b *testing.B, kind string, scales []int) {
	for _, s := range scales {
		s := s
		b.Run(scaleLabel(s), func(b *testing.B) {
			var g *graph.Graph
			switch kind {
			case "rmat":
				g = gen.RMAT(gen.Graph500(s, 30, uint64(400+s)))
			case "hyperbolic":
				g = gen.Hyperbolic(gen.HyperbolicParams{N: 1 << s, AvgDegree: 60, Gamma: 3, Seed: uint64(500 + s)})
			}
			g, _ = graph.LargestComponent(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := simnet.Simulate(g, benchModel(16), benchCfg(0.02, 2))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Times.Sampling.Seconds()/float64(g.NumNodes())*1e6, "us/vertex")
			}
		})
	}
}

func BenchmarkFig4aRMAT(b *testing.B)       { benchFig4(b, "rmat", []int{11, 12, 13}) }
func BenchmarkFig4bHyperbolic(b *testing.B) { benchFig4(b, "hyperbolic", []int{11, 12, 13}) }

// --- Ablation A1: NUMA placement (§IV-E) ----------------------------------

func BenchmarkAblationNUMA(b *testing.B) {
	in := experiments.BenchSuite()[1]
	g := in.Graph()
	for i := 0; i < b.N; i++ {
		m := benchModel(1)
		shm, err := simnet.SimulateSharedMemoryBaseline(g, m, benchCfg(in.Eps, 3))
		if err != nil {
			b.Fatal(err)
		}
		mpi, err := simnet.Simulate(g, m, benchCfg(in.Eps, 3))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(shm.Times.Sampling.Seconds()/mpi.Times.Sampling.Seconds(), "numa-speedup")
	}
}

// --- Ablation A2: aggregation strategy (§IV-F) ----------------------------
// Real (not simulated) runs of Algorithm 2 on the in-process world with the
// three strategies the paper compares.

func BenchmarkAblationAggregation(b *testing.B) {
	g := gen.RMAT(gen.Graph500(12, 16, 5))
	g, _ = graph.LargestComponent(g)
	for _, s := range []core.AggStrategy{core.AggIBarrierReduce, core.AggIReduce, core.AggBlocking} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runDist(b, kadabra.UndirectedWorkload(g), 4, core.Config{
					Config:   benchCfg(0.01, 6),
					Threads:  2,
					Strategy: s,
				})
				b.ReportMetric(float64(res.Res.Tau)/res.Res.Timings.Sampling.Seconds(), "samples/s")
			}
		})
	}
}

// --- Ablation A4': epoch length n0 (§IV-D) ---------------------------------
// The paper tunes n0 to check the stopping condition "neither too rarely nor
// too often"; this sweep exposes both failure modes on a real shared-memory
// run: tiny n0 wastes time on checks/transitions, huge n0 overshoots the
// stopping point.

func BenchmarkAblationEpochLength(b *testing.B) {
	g := gen.RMAT(gen.Graph500(12, 16, 15))
	g, _ = graph.LargestComponent(g)
	for _, base := range []float64{50, 250, 1000, 4000, 16000} {
		base := base
		b.Run("base-"+itoa(int(base)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSharedMemory(b, kadabra.UndirectedWorkload(g), 8, kadabra.Config{
					Eps: 0.01, Delta: 0.1, Seed: 16, EpochBase: base,
				})
				b.ReportMetric(float64(res.Epochs), "epochs")
				b.ReportMetric(float64(res.Tau), "samples")
			}
		})
	}
}

// --- Real-machine scaling (not simulated) ----------------------------------
// Genuine wall-clock scaling of the real implementations on this machine,
// complementing the virtual-cluster results.

func BenchmarkRealSharedMemoryThreads(b *testing.B) {
	g := gen.RMAT(gen.Graph500(13, 16, 11))
	g, _ = graph.LargestComponent(g)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run(threadLabel(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSharedMemory(b, kadabra.UndirectedWorkload(g), threads, benchCfg(0.008, 12))
				b.ReportMetric(float64(res.Tau)/res.Timings.Sampling.Seconds(), "samples/s")
			}
		})
	}
}

func BenchmarkRealDistributedProcs(b *testing.B) {
	g := gen.RMAT(gen.Graph500(13, 16, 11))
	g, _ = graph.LargestComponent(g)
	for _, procs := range []int{1, 2, 4} {
		procs := procs
		b.Run(procLabel(procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runDist(b, kadabra.UndirectedWorkload(g), procs, core.Config{
					Config:  benchCfg(0.008, 13),
					Threads: 4,
				})
				b.ReportMetric(float64(res.Res.Tau)/res.Res.Timings.Sampling.Seconds(), "samples/s")
			}
		})
	}
}

// --- labels ----------------------------------------------------------------

func nodeLabel(n int) string   { return "nodes-" + itoa(n) }
func scaleLabel(s int) string  { return "scale-" + itoa(s) }
func threadLabel(t int) string { return "T-" + itoa(t) }
func procLabel(p int) string   { return "P-" + itoa(p) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

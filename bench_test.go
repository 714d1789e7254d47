// Real-machine benchmarks of the root package, each timing real runs: the
// epoch length n0 (§IV-D), and thread and rank scaling. bench_degraded_test.go adds the
// rank-death recovery path. The repository's end-to-end benchmark is
// bench/ (its own module, declared in BENCHMARK.json).
//
// Custom metrics: "samples/s", "epochs", "samples".
package repro

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
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

// --- Epoch length n0 (§IV-D) -----------------------------------------------
// The paper tunes n0 to check the stopping condition "neither too rarely nor
// too often"; this sweep exposes both failure modes on a real shared-memory
// run: tiny n0 wastes time on checks/transitions, huge n0 overshoots the
// stopping point.

func BenchmarkAblationEpochLength(b *testing.B) {
	g := gen.RMAT(gen.Graph500(12, 16, 15))
	g, _ = graph.LargestComponent(g)
	for _, base := range []float64{50, 250, 1000, 4000, 16000} {
		base := base
		b.Run("base-"+strconv.Itoa(int(base)), func(b *testing.B) {
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

// --- Thread and rank scaling -----------------------------------------------
// Wall-clock scaling of the shared-memory and distributed backends on the
// machine the benchmark runs on.

func BenchmarkRealSharedMemoryThreads(b *testing.B) {
	g := gen.RMAT(gen.Graph500(13, 16, 11))
	g, _ = graph.LargestComponent(g)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run("T-"+strconv.Itoa(threads), func(b *testing.B) {
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
		b.Run("P-"+strconv.Itoa(procs), func(b *testing.B) {
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

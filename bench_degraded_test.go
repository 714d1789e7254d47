// Degraded-mode benchmark: sampling throughput of a distributed run that
// loses a rank mid-flight and completes through the shrink-and-recalibrate
// recovery protocol. No bench/ workload covers rank-death recovery, so this
// is where a perf regression in the recovery path (or a post-shrink
// slowdown of the surviving world) shows up.
package repro

import (
	"context"
	"testing"

	"repro/graph"
	"repro/internal/core"
	"repro/internal/kadabra"
	"repro/internal/simnet"
)

// benchDegradedProcs is the world size; the kill takes it to procs-1.
const benchDegradedProcs = 3

// benchDegradedCfg mirrors the fault-battery recipe: NoOverlap pins each
// epoch's intake to exactly n0 samples so the run lasts a deterministic
// number of epochs and the mid-run kill epoch actually fires.
func benchDegradedCfg() core.Config {
	return core.Config{
		Config:    kadabra.Config{Eps: 0.05, Delta: 0.1, Seed: 42, EpochBase: 128},
		Threads:   1,
		NoOverlap: true,
	}
}

func BenchmarkEstimateDegraded(b *testing.B) {
	rmat := graph.RMAT(graph.Graph500(10, 8, 42))
	lcc, _, err := graph.LargestComponent(rmat)
	if err != nil {
		b.Fatal(err)
	}
	w := kadabra.UndirectedWorkload(lcc)
	cfg := benchDegradedCfg()

	// One healthy reference run pins the epoch count, so the kill lands at
	// ~50% progress regardless of graph or epsilon tweaks.
	ref := runDist(b, w, benchDegradedProcs, cfg)
	killEpoch := ref.Stats.Epochs / 2
	if killEpoch < 1 {
		killEpoch = 1
	}

	b.Run("undirected/dist-degraded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := simnet.RunFaulty(context.Background(), w, benchDegradedProcs, cfg,
				simnet.FaultPlan{KillEpoch: killEpoch, KillRank: benchDegradedProcs - 1})
			if err != nil {
				b.Fatal(err)
			}
			res := rep.Res
			if res == nil || res.Res == nil || !res.Res.Converged {
				b.Fatal("degraded run did not converge")
			}
			if res.Stats.RanksLost != 1 || res.Stats.Recoveries < 1 {
				b.Fatalf("kill not absorbed: lost %d, recoveries %d",
					res.Stats.RanksLost, res.Stats.Recoveries)
			}
			if s := res.Res.Timings.Sampling.Seconds(); s > 0 {
				b.ReportMetric(float64(res.Res.Tau)/s, "samples/s")
			}
		}
	})
}

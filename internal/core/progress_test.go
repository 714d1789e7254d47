package core

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// TestOverlappedBarrierLatencyTCP pins what the poll loops in aggregate and
// broadcastFrame rely on: mpi.Request.Test yields, so an overlapped barrier
// costs a few samples plus the network's own latency even when every P is
// busy sampling (two ranks, one thread each, two Ps): 1-4 ms per barrier on
// this input, 4-8 ms under the race detector, 11-17 ms under the race
// detector while other packages' tests share the two cores. A poll loop that
// does not yield pays a scheduler quantum per message hop, 39-59 ms per
// barrier; the bound is half of that.
func TestOverlappedBarrierLatencyTCP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(10, 16, 17)))
	const runs = 5
	perBarrier := make([]time.Duration, runs)
	for i := range perBarrier {
		res := runTCPWorld(t, func(comm *mpi.Comm) (*Result, error) {
			return algorithm2Fresh(context.Background(), kadabra.UndirectedWorkload(g), comm, Config{
				Config:  kadabra.Config{Eps: 0.01, Delta: 0.1, Seed: uint64(20 + i)},
				Threads: 1,
			})
		})
		if res.Stats.Epochs == 0 {
			t.Fatalf("run %d stopped after calibration; the input no longer exercises the epoch loop", i)
		}
		perBarrier[i] = res.Stats.BarrierWait / time.Duration(res.Stats.Epochs)
		t.Logf("run %d: %d epochs, barrier wait %v (%v per epoch), tau %d",
			i, res.Stats.Epochs, res.Stats.BarrierWait, perBarrier[i], res.Res.Tau)
	}
	sort.Slice(perBarrier, func(a, b int) bool { return perBarrier[a] < perBarrier[b] })
	if med := perBarrier[runs/2]; med >= 20*time.Millisecond {
		t.Fatalf("median overlapped barrier wait %v per epoch, want < 20ms", med)
	}
}

package simnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

func testGraph() *graph.Graph {
	g := gen.RMAT(gen.Graph500(9, 8, 21))
	g, _ = graph.LargestComponent(g)
	return g
}

func testDigraph() *graph.Digraph {
	dg := gen.RandomDigraph(150, 900, 5)
	dg, _ = graph.LargestSCC(dg)
	return dg
}

// faultCfg keeps the runs short enough that a (rank, epoch) grid stays
// fast while lasting enough epochs for every planned kill to fire:
// NoOverlap pins the per-epoch intake to exactly n0 samples per rank
// (otherwise overlap sampling converges most workloads inside one or two
// epochs and late-epoch kills never trigger), and it makes every scenario
// schedule-independent, which is what a regression grid wants.
func faultCfg(seed uint64) core.Config {
	return core.Config{
		Config:    kadabra.Config{Eps: 0.03, Delta: 0.1, Seed: seed, EpochBase: 48},
		Threads:   1,
		NoOverlap: true,
	}
}

func maxErr(exact, got []float64) float64 {
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - got[v]); d > worst {
			worst = d
		}
	}
	return worst
}

// countingWorkload wraps every sampler of w with a per-kernel draw counter
// so tests can bound the folded tau by what was actually drawn.
func countingWorkload(w kadabra.Workload) (kadabra.Workload, func() (total int64)) {
	var mu sync.Mutex
	var counters []*atomic.Int64
	cw := w.WrapSampler(func(s kadabra.Sampler) kadabra.Sampler {
		c := &atomic.Int64{}
		mu.Lock()
		counters = append(counters, c)
		mu.Unlock()
		return &countingSampler{inner: s, n: c}
	})
	return cw, func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var total int64
		for _, c := range counters {
			total += c.Load()
		}
		return total
	}
}

type countingSampler struct {
	inner kadabra.Sampler
	n     *atomic.Int64
}

func (c *countingSampler) Sample() ([]graph.Node, bool) {
	c.n.Add(1)
	return c.inner.Sample()
}

func checkFaultReport(t *testing.T, rep *FaultReport, procs, killed int) {
	t.Helper()
	for r := 0; r < procs; r++ {
		if r == killed {
			if rep.Errs[r] == nil {
				t.Fatalf("killed rank %d returned no error (run converged before the kill epoch?)", r)
			}
			continue
		}
		if rep.Errs[r] != nil {
			t.Fatalf("surviving rank %d failed: %v", r, rep.Errs[r])
		}
	}
	if rep.Res == nil || rep.Res.Res == nil {
		t.Fatal("rank 0 produced no result")
	}
	st := rep.Res.Stats
	if st.RanksStarted != procs {
		t.Errorf("RanksStarted = %d, want %d", st.RanksStarted, procs)
	}
	if st.RanksLost != 1 {
		t.Errorf("RanksLost = %d, want 1", st.RanksLost)
	}
	if st.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", st.Recoveries)
	}
}

// TestKillGrid is the shrink-recalibrate parity battery: kill rank r at
// epoch e for a grid of (r, e), and require that the survivors converge
// with the (eps, delta) guarantee intact against exact Brandes and that
// tau never exceeds what the samplers drew (no double-counted salvage).
func TestKillGrid(t *testing.T) {
	g := testGraph()
	exact := brandes.Exact(g)
	const procs = 3
	for _, r := range []int{1, 2} {
		for _, e := range []int{1, 3} {
			t.Run(fmt.Sprintf("rank%d_epoch%d", r, e), func(t *testing.T) {
				cfg := faultCfg(uint64(100*r + e))
				w, drawn := countingWorkload(kadabra.UndirectedWorkload(g))
				rep, err := RunFaulty(context.Background(), w, procs, cfg, FaultPlan{
					KillRank: r, KillEpoch: e,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkFaultReport(t, rep, procs, r)
				res := rep.Res.Res
				if worst := maxErr(exact, res.Betweenness); worst > cfg.Eps {
					t.Errorf("kill rank %d at epoch %d: max error %f exceeds eps %f (tau=%d)", r, e, worst, cfg.Eps, res.Tau)
				}
				total := drawn()
				if res.Tau > total {
					t.Errorf("tau %d exceeds %d drawn samples: salvage double-counted", res.Tau, total)
				}
			})
		}
	}
}

// TestKillGridWorkloads runs one kill cell of the grid for the directed
// and weighted scenarios: the recovery protocol is workload-agnostic, and
// the guarantee must survive a shrink on every sampler kernel.
func TestKillGridWorkloads(t *testing.T) {
	t.Run("directed", func(t *testing.T) {
		dg := testDigraph()
		exactD := brandes.ExactDirected(dg)
		cfg := faultCfg(41)
		rep, err := RunFaulty(context.Background(), kadabra.DirectedWorkload(dg), 3, cfg, FaultPlan{
			KillRank: 1, KillEpoch: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFaultReport(t, rep, 3, 1)
		if worst := maxErr(exactD, rep.Res.Res.Betweenness); worst > cfg.Eps {
			t.Errorf("max error %f exceeds eps %f", worst, cfg.Eps)
		}
	})

	t.Run("weighted", func(t *testing.T) {
		wg := testWGraph(t)
		exactW := brandes.ExactWeighted(wg)
		cfg := faultCfg(42)
		rep, err := RunFaulty(context.Background(), kadabra.WeightedWorkload(wg), 3, cfg, FaultPlan{
			KillRank: 2, KillEpoch: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFaultReport(t, rep, 3, 2)
		if worst := maxErr(exactW, rep.Res.Res.Betweenness); worst > cfg.Eps {
			t.Errorf("max error %f exceeds eps %f", worst, cfg.Eps)
		}
	})
}

func testWGraph(t *testing.T) *graph.WGraph {
	t.Helper()
	const rows, cols = 8, 8
	at := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	var edges []graph.WeightedEdge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r, c+1), W: uint32(len(edges)*2654435761)%7 + 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.WeightedEdge{U: at(r, c), V: at(r+1, c), W: uint32(len(edges)*2654435761)%7 + 1})
			}
		}
	}
	g, err := graph.FromWeightedEdges(rows*cols, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestKillTauAccounting pins the exact accounting bound on every
// workload. Under NoOverlap with one thread per rank (faultCfg) no frame is
// in flight at shutdown — thread 0's next-epoch frame is only ever filled
// by overlap sampling — so every drawn sample is either folded into S or
// part of the dead rank's in-flight epoch, which holds at most n0 samples
// (the epoch length of the unshrunken world):
//
//	drawnTotal - n0 <= tau <= drawnTotal
//
// A violated lower bound means samples beyond the dead rank's one epoch
// were dropped; a violated upper bound means a frame was folded twice.
func TestKillTauAccounting(t *testing.T) {
	workloads := []struct {
		name string
		w    kadabra.Workload
	}{
		{"undirected", kadabra.UndirectedWorkload(testGraph())},
		{"directed", kadabra.DirectedWorkload(testDigraph())},
		{"weighted", kadabra.WeightedWorkload(testWGraph(t))},
	}
	for _, wl := range workloads {
		for _, killed := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/rank%d", wl.name, killed), func(t *testing.T) {
				w, drawn := countingWorkload(wl.w)
				cfg := faultCfg(uint64(6 + killed))
				rep, err := RunFaulty(context.Background(), w, 3, cfg, FaultPlan{KillRank: killed, KillEpoch: 2})
				if err != nil {
					t.Fatal(err)
				}
				checkFaultReport(t, rep, 3, killed)
				tau := rep.Res.Res.Tau
				total := drawn()
				if tau > total {
					t.Errorf("tau %d exceeds %d drawn: double-counted fold", tau, total)
				}
				if n0 := int64(cfg.EpochLength(3)); tau < total-n0 {
					t.Errorf("tau %d below %d-%d: lost more than the dead rank's in-flight epoch", tau, total, n0)
				}
			})
		}
	}
}

// TestPartition cuts one rank off mid-run: the rank-0 side must detect,
// shrink, and converge; the partitioned rank must report the coordinator
// as lost rather than hang.
func TestPartition(t *testing.T) {
	g := testGraph()
	cfg := faultCfg(9)
	rep, err := RunFaulty(context.Background(), kadabra.UndirectedWorkload(g), 4, cfg, FaultPlan{
		PartitionEpoch: 2,
		PartitionRanks: []int{3},
		DetectDelay:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if rep.Errs[r] != nil {
			t.Fatalf("rank %d on the coordinator side failed: %v", r, rep.Errs[r])
		}
	}
	err3 := rep.Errs[3]
	if err3 == nil {
		t.Fatal("partitioned rank 3 did not fail")
	}
	if _, isDead := mpi.AsRankDead(err3); !isDead && !errors.Is(err3, core.ErrCoordinatorLost) {
		t.Errorf("partitioned rank error does not identify the lost coordinator: %v", err3)
	}
	if rep.Res == nil || rep.Res.Stats.RanksLost != 1 {
		t.Fatalf("coordinator side did not record the lost rank: %+v", rep.Res)
	}
}

// TestDelayedLinksWithKill charges every frame a link delay while a rank
// dies mid-run: latency must slow the run down, never break recovery. The
// observation hook doubles as the Hook-plumbing check.
func TestDelayedLinksWithKill(t *testing.T) {
	g := testGraph()
	cfg := faultCfg(11)
	var frames atomic.Int64
	rep, err := RunFaulty(context.Background(), kadabra.UndirectedWorkload(g), 3, cfg, FaultPlan{
		KillRank:  2,
		KillEpoch: 2,
		Delay:     20 * time.Microsecond,
		Hook: func(src, dst, size int) bool {
			frames.Add(1)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFaultReport(t, rep, 3, 2)
	if !rep.Res.Res.Converged {
		t.Error("run did not converge")
	}
	if frames.Load() == 0 {
		t.Error("fault hook observed no frames")
	}
}

// TestRunFaultyValidation pins the plan validation: rank 0 is not a legal
// kill or partition target (its death is handled by checkpoints, not the
// in-run protocol).
func TestRunFaultyValidation(t *testing.T) {
	g := testGraph()
	w := kadabra.UndirectedWorkload(g)
	if _, err := RunFaulty(context.Background(), w, 3, core.Config{}, FaultPlan{KillRank: 0, KillEpoch: 1}); err == nil {
		t.Error("kill rank 0 accepted")
	}
	if _, err := RunFaulty(context.Background(), w, 3, core.Config{}, FaultPlan{KillRank: 3, KillEpoch: 1}); err == nil {
		t.Error("kill rank out of range accepted")
	}
	if _, err := RunFaulty(context.Background(), w, 3, core.Config{}, FaultPlan{PartitionEpoch: 1, PartitionRanks: []int{0}}); err == nil {
		t.Error("partitioning rank 0 accepted")
	}
}

package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kadabra"
)

// floatsHash is FNV-1a over the IEEE bit patterns: equal hashes mean
// bit-identical vectors.
func floatsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEpochDriverGoldenParity pins Algorithm2 on epoch.Driver to the
// hand-rolled worker/transition loop it replaced: the expected values were
// recorded from that loop at commit b2bc129, just before its deletion, on a
// 2-rank in-process world with Threads 1 and NoOverlap (every rank takes
// exactly n0 samples per epoch, so the run is schedule-independent; Eps
// 0.02, Delta 0.1). This configuration is also the paper's Algorithm 1.
// The weighted rows were recorded again when the weighted sampler became
// bidirectional (PR 22): the same seed now draws other, equally distributed
// paths; the loop under test did not change, as the other six rows show.
// They were recorded a third time when the weighted search began relaxing
// each vertex's arcs in weight order, cut at mu: the path distribution is
// the same, but when mu drops within a settle (so which vertices get
// queued), the queue's tie order and which side goes next all changed.
// They were recorded a fourth time when the weighted vertex-diameter bound
// became certified: omega moved with it (VD 22-28, seed-dependent, to 60 on
// this 8x8 grid; omega 9995 to 11245), and these runs stop at omega.
// Every epochs value rose by one when the check schedule became one for
// every state: the check made right after calibration now counts as an
// epoch, as the sequential schedule always counted it; tau and the hashes
// did not move.
func TestEpochDriverGoldenParity(t *testing.T) {
	ws := coreTestWorkloads(t)
	for _, c := range []struct {
		workload string
		seed     uint64
		tau      int64
		epochs   int
		btHash   uint64
	}{
		{"undirected", 1, 8026, 6, 0x5a92d9b8399fe91d},
		{"undirected", 2, 8026, 6, 0x808bdce9305ec670},
		{"undirected", 3, 8026, 6, 0x54662782700e21a3},
		{"directed", 1, 4846, 4, 0x581a6f5e542d3523},
		{"directed", 2, 4846, 4, 0x741806d2cc7a8d31},
		{"directed", 3, 4846, 4, 0x35568564476c5f58},
		{"weighted", 1, 11244, 8, 0x9d0e6d9a0d381e3f},
		{"weighted", 2, 11244, 8, 0xac23104a033512b8},
		{"weighted", 3, 11244, 8, 0xf045b2d723373e8a},
	} {
		res, err := runFresh(context.Background(), ws[c.workload], 2, Config{
			Config:    kadabra.Config{Eps: 0.02, Delta: 0.1, Seed: c.seed},
			Threads:   1,
			NoOverlap: true,
		})
		if err != nil {
			t.Fatalf("%s/seed%d: %v", c.workload, c.seed, err)
		}
		if res.Res.Tau != c.tau || res.Res.Epochs != c.epochs || !res.Res.Converged {
			t.Errorf("%s/seed%d: tau %d/%d epochs %d/%d converged %v",
				c.workload, c.seed, res.Res.Tau, c.tau, res.Res.Epochs, c.epochs, res.Res.Converged)
		}
		if got := floatsHash(res.Res.Betweenness); got != c.btHash {
			t.Errorf("%s/seed%d: Betweenness not bit-identical: hash %#x, want %#x", c.workload, c.seed, got, c.btHash)
		}
	}
}

// countingSampler counts every draw of the kernels it wraps.
type countingSampler struct {
	inner kadabra.Sampler
	n     *atomic.Int64
}

func (c countingSampler) Sample() ([]graph.Node, bool) {
	c.n.Add(1)
	return c.inner.Sample()
}

// TestCalibrationHonoursStop covers the predicate the calibration threads
// poll. A context cancelled before the run must cost no calibration batch
// (the threads used to test only the deadline and drew all tau0 samples on
// every rank before the cancellation was noticed), and a batch that the
// predicate cut down to nothing must leave the session as a one-rank
// world leaves its own — uncalibrated, with no panic and
// a budget stop that does not claim convergence.
func TestCalibrationHonoursStop(t *testing.T) {
	var drawn atomic.Int64
	w := wrapSamplers(kadabra.UndirectedWorkload(testGraph()), func(s kadabra.Sampler) kadabra.Sampler {
		return countingSampler{inner: s, n: &drawn}
	})
	const vd, eps, delta = 8, 0.01, 0.1
	// One thread and no overlap: calibration is then the only place a rank
	// that never enters the epoch loop can draw samples.
	cfg := Config{
		Config:    kadabra.Config{Eps: eps, Delta: delta, Seed: 5, VertexDiameter: vd},
		Threads:   1,
		NoOverlap: true,
	}
	tau0 := int64(kadabra.Omega(vd, eps, delta))/100 + 1

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runFresh(ctx, w, 2, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	if got := drawn.Load(); got >= tau0 {
		t.Fatalf("pre-cancelled run drew %d samples, a whole calibration batch (tau0 = %d)", got, tau0)
	}

	drawn.Store(0)
	cfg.MaxDuration = time.Nanosecond // overdue before the first calibration sample
	res, err := runFresh(context.Background(), w, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Converged || res.Res.AchievedEps != 1 {
		t.Fatalf("empty calibration batch: converged %v, achieved eps %v (tau %d)",
			res.Res.Converged, res.Res.AchievedEps, res.Res.Tau)
	}
	if got := drawn.Load(); got >= tau0 {
		t.Fatalf("overdue run drew %d samples, a whole calibration batch (tau0 = %d)", got, tau0)
	}
}

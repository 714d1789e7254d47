package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kadabra"
)

// recordingSampler logs every path its kernel draws.
type recordingSampler struct {
	inner kadabra.Sampler
	mu    *sync.Mutex
	log   *[]string
}

func (r recordingSampler) Sample() ([]graph.Node, bool) {
	internal, ok := r.inner.Sample()
	r.mu.Lock()
	*r.log = append(*r.log, fmt.Sprint(ok, internal))
	r.mu.Unlock()
	return internal, ok
}

// TestSecondRunDrawsNewPaths pins the stream-replay bug a session spanning
// several Algorithm2 calls invites: were the worker streams re-derived from
// the seed on every call, the second run would draw the first run's paths
// again and count them twice. Two consecutive budget-stopped runs on a
// 2-rank world (Threads 1, NoOverlap: every draw is in the logs, in order)
// must continue the session — tau and epochs grow, phase 2 is not repeated
// — and no worker's second run may open with the paths any worker's first
// run opened with.
func TestSecondRunDrawsNewPaths(t *testing.T) {
	const procs, prefix = 2, 12
	var mu sync.Mutex
	var logs []*[]string // one per kernel, in world-rank order (NewStates builds them in order)
	w := kadabra.UndirectedWorkload(testGraph()).WrapSampler(func(s kadabra.Sampler) kadabra.Sampler {
		log := new([]string)
		logs = append(logs, log)
		return recordingSampler{inner: s, mu: &mu, log: log}
	})
	cfg := Config{
		Config:    kadabra.Config{Eps: 0.002, Delta: 0.1, Seed: 9, MaxSamples: 12000},
		Threads:   1,
		NoOverlap: true,
	}
	sts, err := NewStates(w, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != procs {
		t.Fatalf("%d kernels for %d single-thread ranks", len(logs), procs)
	}
	first, err := RunLocal(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Res.Converged || first.Res.AchievedEps >= 1 {
		t.Fatalf("first run: converged=%v achieved eps %g; want a budget stop past calibration",
			first.Res.Converged, first.Res.AchievedEps)
	}
	cut := make([]int, procs)
	for i, log := range logs {
		cut[i] = len(*log)
	}

	cfg.MaxSamples = 2 * first.Res.Tau
	second, err := RunLocal(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Res.Tau <= first.Res.Tau || second.Res.Epochs <= first.Res.Epochs {
		t.Fatalf("second run did not continue the session: tau %d -> %d, epochs %d -> %d",
			first.Res.Tau, second.Res.Tau, first.Res.Epochs, second.Res.Epochs)
	}
	if second.Res.Timings.Calibration != first.Res.Timings.Calibration {
		t.Fatalf("second run repeated phase 2: calibration %v -> %v",
			first.Res.Timings.Calibration, second.Res.Timings.Calibration)
	}
	// Every sample drawn is either folded or in no frame at all (NoOverlap,
	// one thread): the session's tau is exactly what the kernels drew.
	drawn := 0
	for _, log := range logs {
		drawn += len(*log)
	}
	if int64(drawn) != second.Res.Tau {
		t.Fatalf("kernels drew %d samples, the session counts %d", drawn, second.Res.Tau)
	}
	for i, log := range logs {
		run2 := (*log)[cut[i]:]
		if len(run2) < prefix {
			t.Fatalf("worker %d drew only %d samples in the second run", i, len(run2))
		}
		for j, other := range logs {
			if fmt.Sprint(run2[:prefix]) == fmt.Sprint((*other)[:prefix]) {
				t.Fatalf("worker %d's second run replays worker %d's first: %v", i, j, run2[:prefix])
			}
		}
	}
}

// TestResumeAfterCalibrationCutShort: a budget smaller than the calibration
// batch leaves a distributed session exactly as it leaves a sequential one
// — uncalibrated, its partial batch kept — and the next run finishes
// phase 2 on top of it and converges.
func TestResumeAfterCalibrationCutShort(t *testing.T) {
	g := testGraph()
	cfg := Config{Config: kadabra.Config{Eps: 0.02, Delta: 0.1, Seed: 4, MaxSamples: 50}, Threads: 2}
	sts, err := NewStates(kadabra.UndirectedWorkload(g), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLocal(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tau0 := sts[0].CalibrationTarget(kadabra.Budget{})
	if sts[0].Calibrated() || res.Res.Converged || res.Res.AchievedEps != 1 || res.Res.Tau < 50 || res.Res.Tau >= tau0 {
		t.Fatalf("budget 50 < tau0 %d: calibrated=%v converged=%v achieved eps %g tau %d",
			tau0, sts[0].Calibrated(), res.Res.Converged, res.Res.AchievedEps, res.Res.Tau)
	}
	held := res.Res.Tau
	cfg.MaxSamples = 0
	res, err = RunLocal(context.Background(), sts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Res.Converged || res.Res.Tau <= held {
		t.Fatalf("resumed run: converged=%v tau %d (held %d)", res.Res.Converged, res.Res.Tau, held)
	}
	guaranteeCheck(t, g, res.Res, cfg.Eps)
}

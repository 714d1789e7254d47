package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/betweenness"
)

// opResult is what one op returned and how long its parts took, measured
// from outside: around the calls into the program's exported functions.
type opResult struct {
	seed uint64
	err  error
	// dur is the op's wall time, call to return (on daemon-session the fresh
	// session's whole lifecycle).
	dur time.Duration

	// what the program reported
	estimates   []float64
	tau         int64
	converged   bool
	achievedEps float64
	// adsRate is tau over the adaptive-sampling time, as the caller sees it:
	// from Result on the library workloads, from the session status on
	// daemon-session.
	adsRate float64

	// library ops
	res    *betweenness.Result
	est    *betweenness.Estimator
	newEst time.Duration // NewEstimator's wall time (rank 0)

	// daemon ops (paired): the fresh session and the identical repeat
	paired        bool
	fresh, repeat sessionTimes

	// alloc and mallocs are the runtime.MemStats deltas around the op.
	alloc, mallocs uint64
}

// failure classifies an op: "" if it counts, else why it failed. ref, when
// set, is an earlier op's estimates on the same graph — both are within eps of
// the truth with probability 1-delta each, so they must agree within 2*eps.
func (op *opResult) failure(eps float64, ref []float64) string {
	switch {
	case op.err != nil:
		return "error: " + op.err.Error()
	case !op.converged:
		return "not converged"
	case op.achievedEps > eps:
		return fmt.Sprintf("achieved eps %.4g above the target %g", op.achievedEps, eps)
	case len(op.estimates) == 0:
		return "no estimates"
	case ref != nil && len(ref) != len(op.estimates):
		return fmt.Sprintf("%d estimates, reference has %d", len(op.estimates), len(ref))
	}
	for v, b := range op.estimates {
		if math.IsNaN(b) || b < 0 {
			return fmt.Sprintf("estimate %g at vertex %d", b, v)
		}
		if ref != nil && math.Abs(b-ref[v]) > 2*eps {
			return fmt.Sprintf("vertex %d: %.4g vs reference %.4g, more than 2*eps apart", v, b, ref[v])
		}
	}
	if op.paired && !op.repeat.cached {
		return "repeated request was not served from the cache"
	}
	return ""
}

// op runs the workload's call once with the given sampling seed. id labels
// the op's spans; tr == nil runs it untraced (no WithProgress callback, no
// spans).
func (in *instance) op(ctx context.Context, seed uint64, tr *tracer, parent, id int) *opResult {
	if in.daemon != nil {
		return in.daemon.op(ctx, seed, tr, parent, id)
	}
	return in.libraryOp(ctx, seed, tr, parent, id)
}

// libraryOp is one estimate through the public API: NewEstimator then Run,
// on one rank, or on two TCP ranks as goroutines over loopback. The op is
// timed from before the ranks start until all have returned, so the TCP
// world's connect and teardown are inside — users pay them on every run.
func (in *instance) libraryOp(ctx context.Context, seed uint64, tr *tracer, parent, id int) *opResult {
	w := in.spec
	executor := func(int) betweenness.Executor { return betweenness.SharedMemory() }
	ranks := 1
	switch w.backend {
	case "seq":
		executor = func(int) betweenness.Executor { return betweenness.Sequential() }
	case "tcp2":
		ranks = 2
		addrs, err := freeAddrs(ranks)
		if err != nil {
			return &opResult{err: err}
		}
		executor = func(rank int) betweenness.Executor { return betweenness.TCP(rank, addrs) }
	}

	outs := make([]*opResult, ranks)
	start := time.Now()
	err := eachRank(ranks, func(rank int) error {
		outs[rank] = in.runRank(ctx, executor(rank), seed, tr, parent, id, rank)
		return outs[rank].err
	})
	op := outs[0] // only rank 0 of a TCP world holds the estimates
	op.dur, op.err = time.Since(start), err
	return op
}

// runRank is one rank's share of a library op.
func (in *instance) runRank(ctx context.Context, exec betweenness.Executor, seed uint64, tr *tracer, parent, id, rank int) *opResult {
	w := in.spec
	opts := []betweenness.Option{
		betweenness.WithEpsilon(w.eps),
		betweenness.WithDelta(delta),
		betweenness.WithSeed(seed),
		betweenness.WithThreads(w.threads),
		betweenness.WithExecutor(exec),
	}
	runSpan, last := -1, time.Duration(0)
	if tr != nil {
		// Registering the callback is what "tracing on" costs inside the
		// program: an O(n) achieved-eps sweep per epoch.
		opts = append(opts, betweenness.WithProgress(func(s betweenness.Snapshot) {
			now := tr.now()
			tr.add("epoch", runSpan, id, rank, last, now, map[string]any{"epoch": s.Epoch, "tau": s.Tau, "achieved_eps": s.AchievedEps})
			last = now
		}))
	}

	op := &opResult{}
	sp := tr.begin("new_estimator", parent, id, rank)
	start := time.Now()
	op.est, op.err = betweenness.NewEstimator(in.w, opts...)
	op.newEst = time.Since(start)
	tr.end(sp)
	if op.err != nil {
		return op
	}

	runSpan = tr.begin("run", parent, id, rank)
	last = tr.now()
	op.res, op.err = op.est.Run(ctx)
	tr.end(runSpan)
	if op.err != nil {
		return op
	}
	res := op.res
	op.estimates, op.tau, op.converged, op.achievedEps = res.Estimates, res.Tau, res.Converged, res.AchievedEps
	if s := res.Timings.Sampling.Seconds(); s > 0 {
		op.adsRate = float64(res.Tau) / s
	}
	return op
}

// eachRank runs fn as n concurrent ranks and returns the first error.
func eachRank(n int, fn func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = fn(rank)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// freeAddrs reserves n loopback addresses for a TCP world.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

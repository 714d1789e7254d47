package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/betweenness"
)

// runConfig is how one workload is run.
type runConfig struct {
	seed uint64
	// seconds is how long the timed ops measure; a workload whose minOps
	// take longer runs past it.
	seconds float64
	// endToEnd selects the untraced pass as the product (all ops untraced,
	// set-up repeated for setup_s); layers adds the traced pass, the
	// baseline and the probes. The driver asks for one at a time.
	endToEnd, layers bool
	outDir           string

	// The fields below are fullSize, 0 and 10 in every benchmark run; the
	// smoke test lowers them to run the same code at toy size.
	size     sizes
	fixedOps int // > 0: run exactly this many timed ops
	reps     int // probe repetition scale
}

const (
	// setupReps is how often an end-to-end run sets up, to report a median.
	setupReps = 5
	// tracedOps is the fewest ops the traced pass runs.
	tracedOps = 2
	// layersMinOps is the fewest untraced ops a layers-only run times: the
	// per-layer metrics read medians off them, not regression bounds.
	layersMinOps = 3
)

// workloadReport is one workload's section of the result file.
type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Ops       int      `json:"ops"` // timed, untraced, successful
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	WallS     float64  `json:"wall_s"`
	// EndToEnd summarizes the untraced timed ops; PerLayer is set by the
	// traced pass and lists only the layers that did work.
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Trace    string             `json:"trace,omitempty"`
}

// abort records a workload that could not run: every op it would have timed
// counts as failed.
func (rep *workloadReport) abort(err error, ops int) {
	rep.Attempted += ops
	rep.Failed += ops
	rep.Failures = append(rep.Failures, err.Error())
}

// runner drives one workload instance through its passes.
type runner struct {
	ctx  context.Context
	cfg  runConfig
	in   *instance
	rep  *workloadReport
	tr   *tracer
	root int // the workload's span
	// next numbers the ops: op i samples with seed cfg.seed*1000+i.
	next int
	// ref is the first successful op's estimates, the 2*eps reference.
	ref []float64
}

// do runs the next op — traced iff tr is set — outside of any GC cycle, and
// classifies it. A failed op is recorded and nil is returned.
func (r *runner) do(tr *tracer) *opResult {
	id := r.next
	r.next++
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin("op", r.root, id, 0)
	seed := r.cfg.seed*1000 + uint64(id)
	op := r.in.op(r.ctx, seed, tr, sp, id)
	op.seed = seed
	tr.end(sp)
	runtime.ReadMemStats(&after)
	op.alloc, op.mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs

	sp = tr.begin("check", r.root, id, 0)
	reason := op.failure(r.in.spec.eps, r.ref)
	tr.end(sp)
	r.rep.Attempted++
	if reason != "" {
		r.rep.Failed++
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("op %d: %s", id, reason))
		return nil
	}
	if r.ref == nil {
		r.ref = op.estimates
	}
	return op
}

// timed runs untraced ops for the given time and at least minOps of them,
// and returns the successful ones.
func (r *runner) timed(seconds float64, minOps int) []*opResult {
	var ops []*opResult
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < seconds; n++ {
		if op := r.do(nil); op != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// runWorkload sets the workload up, warms it, times the untraced ops and —
// when cfg.layers is set — runs the traced pass.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) *workloadReport {
	wallStart := time.Now()
	rep := &workloadReport{Name: w.name, Why: w.why, EndToEnd: make(map[string]summary)}
	defer func() { rep.WallS = time.Since(wallStart).Seconds() }()
	r := &runner{ctx: ctx, cfg: cfg, rep: rep, root: -1}
	if cfg.layers {
		r.tr = newTracer()
		r.root = r.tr.begin(w.name, -1, -1, 0)
	}

	reps, seconds, minOps := 1, cfg.seconds/2, layersMinOps
	if cfg.endToEnd {
		reps, seconds, minOps = setupReps, cfg.seconds, w.minOps
	}
	if cfg.fixedOps > 0 {
		seconds, minOps = 0, cfg.fixedOps
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if r.in != nil {
			r.in.close()
		}
		sp := r.tr.begin("setup", r.root, -1, 0)
		start := time.Now()
		in, err := w.setup(ctx, cfg, r.tr, sp)
		setups = append(setups, time.Since(start).Seconds())
		r.tr.end(sp)
		if err != nil {
			rep.abort(fmt.Errorf("set-up: %w", err), minOps)
			return rep
		}
		r.in = in
	}
	defer r.in.close()
	rep.EndToEnd["setup_s"] = summarize(setups, metric("setup_s"))

	// One untimed op fills caches and page-faults the graph in; it is also
	// the reference the later ops' estimates are compared with.
	if r.do(nil) == nil {
		rep.abort(fmt.Errorf("warm-up op failed"), minOps)
		return rep
	}
	ops := r.timed(seconds, minOps)
	rep.Ops = len(ops)
	durs, rates := make([]float64, len(ops)), make([]float64, len(ops))
	for i, op := range ops {
		durs[i], rates[i] = op.dur.Seconds(), op.adsRate
	}
	rep.EndToEnd["estimate_s"] = summarize(durs, metric("estimate_s"))
	rep.EndToEnd["ads_samples_per_s"] = summarize(rates, metric("ads_samples_per_s"))

	if cfg.layers && len(ops) > 0 {
		if err := r.tracedPass(ops); err != nil {
			rep.Failures = append(rep.Failures, err.Error())
		}
		for name, v := range rep.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				delete(rep.PerLayer, name) // a ratio over a zero base; JSON cannot carry it
			}
		}
		r.tr.end(r.root)
		rep.Trace = filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := r.tr.writeChrome(rep.Trace); err != nil {
			rep.Failures = append(rep.Failures, "writing trace: "+err.Error())
		}
	}
	return rep
}

// ms and us convert a duration to the benchmark's small time units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// middleOps returns the op with the median wall time — for an even count the
// two ops around it, whose mean wall time is the median.
func middleOps(ops []*opResult) []*opResult {
	sorted := append([]*opResult(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].dur < sorted[j].dur })
	n := len(sorted)
	return sorted[(n-1)/2 : n/2+1]
}

// mean averages get over ops.
func mean(ops []*opResult, get func(*opResult) float64) float64 {
	sum := 0.0
	for _, op := range ops {
		sum += get(op)
	}
	return sum / float64(len(ops))
}

// tracedPass runs the traced ops, the sequential baseline and the probes,
// and assembles the per-layer metrics. untraced are the timed ops of the
// pass before: tracing overhead is the difference between the two.
func (r *runner) tracedPass(untraced []*opResult) error {
	in, w := r.in, r.in.spec
	var tracedDurs []float64
	for start, i := time.Now(), 0; i < tracedOps || time.Since(start) < r.repeatTime(); i++ {
		if op := r.do(r.tr); op != nil {
			tracedDurs = append(tracedDurs, op.dur.Seconds())
		}
	}

	// The baseline: the same problem on one sequential thread through the
	// public API, with the first timed op's seed.
	var bases []*opResult
	sp := r.tr.begin("baseline", r.root, -1, 0)
	for start := time.Now(); len(bases) == 0 || time.Since(start) < r.repeatTime(); {
		base := r.in.baseline(r.ctx, untraced[0].seed)
		if reason := base.failure(w.eps, r.ref); reason != "" {
			r.tr.end(sp)
			return fmt.Errorf("baseline: %s", reason)
		}
		bases = append(bases, base)
	}
	r.tr.end(sp)
	base := middleOps(bases)[0]

	m, err := in.probes(r.cfg, r.tr, r.root, base)
	for k, v := range in.layers {
		m[k] = v
	}
	r.rep.PerLayer = m

	// The Fig. 2b row is read off the op with the median wall time (the mean
	// of the two middle ops for an even count), so that estimate_s =
	// diameter + calibration + sampling + overhead holds exactly. A daemon
	// session reports no timings; its row is the direct library call's, and
	// the rest of its estimate_s is server.overhead_ms.
	row := middleOps(untraced)
	if w.backend == "daemon" {
		row = middleOps(bases)
	}
	seconds := func(get func(betweenness.Timings) time.Duration) float64 {
		return mean(row, func(op *opResult) float64 { return get(op.res.Timings).Seconds() })
	}
	m["kadabra.diameter_s"] = seconds(func(t betweenness.Timings) time.Duration { return t.Diameter })
	m["kadabra.calibration_s"] = seconds(func(t betweenness.Timings) time.Duration { return t.Calibration })
	m["kadabra.sampling_s"] = seconds(func(t betweenness.Timings) time.Duration { return t.Sampling })
	m["kadabra.check_s"] = seconds(func(t betweenness.Timings) time.Duration { return t.Check })
	m["kadabra.transition_s"] = seconds(func(t betweenness.Timings) time.Duration { return t.Transition })
	m["kadabra.tau"] = mean(row, func(op *opResult) float64 { return float64(op.res.Tau) })
	m["kadabra.epochs"] = mean(row, func(op *opResult) float64 { return float64(op.res.Epochs) })
	m["kadabra.tau_over_omega"] = m["kadabra.tau"] / row[0].res.Omega
	m["kadabra.seq_ads_samples_per_s"] = base.adsRate
	if w.backend == "shm" {
		m["kadabra.shm_speedup"] = r.rep.EndToEnd["ads_samples_per_s"].Median / base.adsRate
	}
	if row[0].res.Distributed != nil {
		dist := func(get func(*betweenness.DistStats) float64) float64 {
			return mean(row, func(op *opResult) float64 { return get(op.res.Distributed) })
		}
		m["core.epochs"] = dist(func(d *betweenness.DistStats) float64 { return float64(d.Epochs) })
		m["core.barrier_wait_s"] = dist(func(d *betweenness.DistStats) float64 { return d.BarrierWait.Seconds() })
		m["core.reduce_s"] = dist(func(d *betweenness.DistStats) float64 { return d.ReduceTime.Seconds() })
		m["core.transition_wait_s"] = dist(func(d *betweenness.DistStats) float64 { return d.TransitionWait.Seconds() })
		m["core.check_s"] = dist(func(d *betweenness.DistStats) float64 { return d.CheckTime.Seconds() })
		m["core.reduce_wire_bytes"] = dist(func(d *betweenness.DistStats) float64 { return float64(d.ReduceWireBytes) })
		taus := make([]float64, len(untraced))
		for i, op := range untraced {
			taus[i] = float64(op.tau)
		}
		m["core.oversample_ratio"] = median(taus) / float64(base.tau)
	}

	m["betweenness.new_estimator_ms"] = mean(row, func(op *opResult) float64 {
		if op.est.Checkpointable() {
			return ms(op.newEst - op.res.Timings.Diameter) // a steppable session runs phase 1 inside NewEstimator
		}
		return ms(op.newEst)
	})
	m["betweenness.overhead_ms"] = mean(row, func(op *opResult) float64 { return ms(op.dur - op.res.Timings.Total()) })
	var alloc, mallocs []float64
	for _, op := range untraced {
		alloc, mallocs = append(alloc, float64(op.alloc)/(1<<20)), append(mallocs, float64(op.mallocs))
	}
	m["betweenness.alloc_mib_per_op"], m["betweenness.mallocs_per_op"] = median(alloc), median(mallocs)
	if len(tracedDurs) > 0 {
		m["betweenness.trace_overhead_share"] = median(tracedDurs)/r.rep.EndToEnd["estimate_s"].Median - 1
	}

	if w.backend == "daemon" {
		if derr := r.serverMetrics(m, untraced, mean(row, func(op *opResult) float64 { return ms(op.dur) })); derr != nil {
			return derr
		}
	}
	return err
}

// serverMetrics fills the server.* rows from the fresh sessions' per-request
// client times, the direct library call's time libraryMs and a durable second
// daemon.
func (r *runner) serverMetrics(m map[string]float64, untraced []*opResult, libraryMs float64) error {
	sessionMs := r.rep.EndToEnd["estimate_s"].Median * 1e3
	col := func(get func(*opResult) float64) float64 {
		values := make([]float64, len(untraced))
		for i, op := range untraced {
			values[i] = get(op)
		}
		return median(values)
	}
	m["server.create_ms"] = col(func(op *opResult) float64 { return ms(op.fresh.create) })
	m["server.run_accept_ms"] = col(func(op *opResult) float64 { return ms(op.fresh.runAccept) })
	m["server.poll_ms"] = col(func(op *opResult) float64 { return ms(op.fresh.poll) / float64(op.fresh.polls) })
	m["server.polls_per_session"] = col(func(op *opResult) float64 { return float64(op.fresh.polls) })
	m["server.result_ms"] = col(func(op *opResult) float64 { return ms(op.fresh.result) })
	m["server.cache_hit_ms"] = col(func(op *opResult) float64 { return ms(op.repeat.total) })
	m["server.overhead_ms"] = sessionMs - libraryMs
	durable, err := r.durableSessionMs(untraced)
	if err != nil {
		return err
	}
	m["server.durability_ms"] = durable - sessionMs
	return nil
}

// durableSessionMs replays the timed ops' requests against a second daemon
// that persists to a data dir, and returns the median fresh-session time: what
// session metadata, the completion checkpoint and the cache spill (with their
// fsyncs) add is server.durability_ms. The end-to-end ops run in memory
// because this box's fsync latency drifts by 2x over minutes.
func (r *runner) durableSessionMs(untraced []*opResult) (float64, error) {
	sp := r.tr.begin("durable_daemon", r.root, -1, 0)
	defer r.tr.end(sp)
	d, _, err := startDaemon(r.ctx, r.in, r.cfg.outDir, true, r.cfg.seed)
	if err != nil {
		return 0, err
	}
	defer d.close()
	var totals []float64
	for start, i := time.Now(), 0; i < len(untraced) && (i < tracedOps || time.Since(start) < r.repeatTime()); i++ {
		op := d.op(r.ctx, untraced[i].seed, nil, -1, -1)
		if reason := op.failure(r.in.spec.eps, r.ref); reason != "" {
			return 0, fmt.Errorf("durable daemon: %s", reason)
		}
		totals = append(totals, ms(op.dur))
	}
	return median(totals), nil
}

// repeatTime is how long the traced ops (at least tracedOps) and the
// sequential baseline op (at least one) are repeated for: a millisecond-sized
// op needs many runs to give a steady median, a seconds-sized one is steady
// after a few.
func (r *runner) repeatTime() time.Duration {
	return time.Duration(r.cfg.reps) * 50 * time.Millisecond
}

// baseline is one sequential-engine estimate of the instance's problem
// through the public API, whatever the workload's own backend.
func (in *instance) baseline(ctx context.Context, seed uint64) *opResult {
	start := time.Now()
	op := in.runRank(ctx, betweenness.Sequential(), seed, nil, -1, -1, 0)
	op.dur = time.Since(start)
	return op
}

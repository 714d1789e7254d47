package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/betweenness"
	"repro/internal/epoch"
	"repro/internal/kadabra"
	"repro/internal/mpi"
	"repro/internal/pq"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The probes are the part of the traced pass that calls single layers
// directly, through their exported functions, on the workload's own graph.
// Each runs single-threaded on an otherwise idle process and reports a
// median over cfg.reps-scaled repetitions.

// timeMedian runs fn rounds times and returns the median duration in unit
// (time.Millisecond for ms, and so on).
func timeMedian(rounds int, unit time.Duration, fn func()) float64 {
	values := make([]float64, rounds)
	for i := range values {
		start := time.Now()
		fn()
		values[i] = float64(time.Since(start)) / float64(unit)
	}
	return median(values)
}

// probes runs every layer probe and returns the per-layer metrics they
// produce. base is the sequential baseline op of the same problem: its final
// state feeds the stopping-rule and checkpoint probes.
func (in *instance) probes(cfg runConfig, tr *tracer, parent int, base *opResult) (map[string]float64, error) {
	m := make(map[string]float64)
	var firstErr error
	run := func(name string, fn func() error) {
		sp := tr.begin("probe:"+name, parent, -1, 0)
		if err := fn(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("probe %s: %w", name, err)
		}
		tr.end(sp)
	}
	seed := cfg.seed

	run("diameter", func() error {
		vd, d := in.kw.ResolveDiameter(kadabra.Config{Seed: seed})
		m["diameter.resolve_s"], m["diameter.vertex_diameter"] = d.Seconds(), float64(vd)
		return nil
	})
	run("bfs", func() error {
		m["bfs.sample_ns"], m["bfs.path_interior_mean"], m["bfs.allocs_per_sample"] = probeSampler(in.kw, seed, cfg.reps)
		if in.spec.weighted {
			m["bfs.unweighted_sample_ns"], _, _ = probeSampler(kadabra.UndirectedWorkload(in.g), seed, cfg.reps)
			m["bfs.weighted_gap"] = m["bfs.sample_ns"] / m["bfs.unweighted_sample_ns"]
			m["pq.pushpop_ns"] = probeHeap(in.kw.N(), seed, cfg.reps)
		}
		return nil
	})
	var payload []byte
	run("epoch", func() (err error) { payload, err = probeEpoch(in.kw, seed, cfg.reps, m); return })
	run("kadabra", func() error { probeStoppingRule(in, base, cfg.reps, m); return nil })
	run("checkpoint", func() error { return probeCheckpoint(in, base, cfg.reps, m) })
	run("mpi", func() error { return probeTransport(payload, cfg.reps, m) })
	return m, firstErr
}

// probeSampler draws samples from one fresh kernel of the workload and
// returns ns per sample, mean interior path length and mallocs per sample.
func probeSampler(kw kadabra.Workload, seed uint64, reps int) (ns, interior, allocs float64) {
	s := kw.NewSampler(rng.NewRand(seed))
	minSamples, minTime := 200*reps, time.Duration(reps)*25*time.Millisecond
	for i := 0; i < minSamples/10; i++ {
		s.Sample() // grow the kernel's scratch buffers before measuring
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, vertices := 0, 0
	start := time.Now()
	for n < minSamples || time.Since(start) < minTime {
		for i := 0; i < 64; i++ {
			path, _ := s.Sample()
			vertices += len(path)
		}
		n += 64
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(vertices) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeHeap fills a pq.Heap with all n items at random priorities and drains
// it; the result is ns per push+pop pair.
func probeHeap(n int, seed uint64, reps int) float64 {
	r := rng.NewRand(seed)
	prio := make([]uint64, n)
	for i := range prio {
		prio[i] = r.Uint64n(uint64(n) * maxWeight)
	}
	h := pq.New(n)
	perRound := timeMedian(10*reps, time.Nanosecond, func() {
		for i, p := range prio {
			h.Push(uint32(i), p)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	return perRound / float64(n)
}

// probeEpoch fills the two frames of a 2-thread framework with one epoch's
// n0 samples each and times what the coordinator and the wire path do with
// them. It returns one encoded frame as the payload for the transport probe.
func probeEpoch(kw kadabra.Workload, seed uint64, reps int, m map[string]float64) ([]byte, error) {
	const threads = 2
	n := kw.N()
	fw := epoch.New(threads, n)
	dst := epoch.NewStateFrame(n)
	counts := make([]int64, n)
	master := rng.NewRand(seed)
	samplers := make([]kadabra.Sampler, threads)
	for t := range samplers {
		samplers[t] = kw.NewSampler(master.Split())
	}
	n0 := kadabra.Config{}.EpochLength(threads)

	var touched, dense, wireBytes, encode, merge, fold, aggregate []float64
	wires := make([][]byte, threads)
	began := time.Now()
	for round := 0; round < 2*reps && (round < 2 || time.Since(began) < time.Second); round++ {
		for t, s := range samplers {
			f := fw.Frame(t)
			for i := 0; i < n0; i++ {
				kadabra.SampleInto(s, f)
			}
			distinct, isDense := f.TouchedLen(), 0.0
			if f.Dense() {
				distinct, isDense = 0, 1
				for _, c := range f.C {
					if c != 0 {
						distinct++
					}
				}
			}
			touched, dense = append(touched, float64(distinct)), append(dense, isDense)
		}
		start := time.Now()
		for t := range wires {
			wires[t] = epoch.AppendWire(wires[t][:0], fw.Frame(t), false)
		}
		encode = append(encode, us(time.Since(start))/threads)
		wireBytes = append(wireBytes, float64(len(wires[0])+len(wires[1]))/threads)

		// MergeWire may write into either input: merge copies.
		a, b := bytes.Clone(wires[0]), bytes.Clone(wires[1])
		start = time.Now()
		merged, err := epoch.MergeWire(a, b)
		merge = append(merge, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		_, _, err = epoch.FoldWire(merged, counts)
		fold = append(fold, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		fw.AggregateEpoch(0, dst)
		aggregate = append(aggregate, us(time.Since(start)))
	}
	m["epoch.touched_per_frame"] = median(touched)
	m["epoch.dense_share"] = stats.Mean(dense)
	m["epoch.wire_bytes"] = median(wireBytes)
	m["epoch.wire_encode_us"] = median(encode)
	m["epoch.wire_merge_us"] = median(merge)
	m["epoch.wire_fold_us"] = median(fold)
	m["epoch.aggregate_us"] = median(aggregate)
	return wires[0], nil
}

// probeStoppingRule times the calibration and the two O(n) sweeps of the
// stopping rule on the baseline op's final counts (where the rule holds, so
// HaveToStop runs its full sweep — the worst case of the amortized check).
func probeStoppingRule(in *instance, base *opResult, reps int, m map[string]float64) {
	res := base.res
	counts := make([]int64, len(res.Estimates))
	for v, b := range res.Estimates {
		counts[v] = int64(math.Round(b * float64(res.Tau)))
	}
	var cal *kadabra.Calibration
	m["kadabra.calibrate_ms"] = timeMedian(max(reps/2, 1), time.Millisecond, func() {
		cal = kadabra.Calibrate(counts, res.Tau, res.Omega, in.spec.eps, delta)
	})
	m["kadabra.have_to_stop_us"] = timeMedian(5*reps, time.Microsecond, func() { cal.HaveToStop(counts, res.Tau) })
	m["kadabra.achieved_eps_us"] = timeMedian(5*reps, time.Microsecond, func() { cal.AchievedEps(counts, res.Tau) })
}

// probeCheckpoint serializes the baseline op's finished session and restores
// it, through the public Estimator (which seals
// EstimatorState.AppendCheckpoint in a CRC envelope and reads it back with
// RestoreEstimatorState).
func probeCheckpoint(in *instance, base *opResult, reps int, m map[string]float64) error {
	var buf bytes.Buffer
	var err error
	rounds := max(reps/2, 1)
	m["kadabra.checkpoint_ms"] = timeMedian(rounds, time.Millisecond, func() {
		buf.Reset()
		if e := base.est.Checkpoint(&buf); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m["kadabra.checkpoint_bytes"] = float64(buf.Len())
	m["kadabra.restore_ms"] = timeMedian(rounds, time.Millisecond, func() {
		if _, e := betweenness.RestoreEstimator(bytes.NewReader(buf.Bytes()), in.w); e != nil {
			err = e
		}
	})
	return err
}

// probeTransport measures world set-up and the two collectives of one epoch —
// ReduceMerge of an encoded frame plus the 1-byte termination broadcast, and
// the non-blocking barrier — over a 2-rank TCP world on loopback and over the
// in-process transport.
func probeTransport(payload []byte, reps int, m map[string]float64) error {
	const ranks = 2
	// rtt fills reduce and barrier from the last rank of whichever world runs it.
	var reduce, barrier []float64
	rtt := func(comm *mpi.Comm) error {
		r, b, err := collectiveRTT(comm, payload, 20*reps)
		if comm.Rank() == ranks-1 {
			reduce, barrier = r, b
		}
		return err
	}

	connects := make([]float64, max(reps/2, 1))
	for i := range connects {
		fn := (*mpi.Comm).Barrier // both ranks are connected before either closes
		if i == len(connects)-1 {
			fn = rtt
		}
		var err error
		if connects[i], err = tcpWorld(ranks, fn); err != nil {
			return err
		}
	}
	m["mpi.tcp_connect_ms"] = median(connects)
	m["mpi.tcp_reduce_rtt_us"], m["mpi.tcp_barrier_rtt_us"] = median(reduce), median(barrier)

	if err := mpi.RunLocal(ranks, rtt); err != nil {
		return err
	}
	m["mpi.local_reduce_rtt_us"] = median(reduce)
	return nil
}

// tcpWorld connects a TCP world of the given size over loopback, runs fn on
// every rank, closes the world, and returns how long the connect took (ms,
// until the slowest rank had its communicator).
func tcpWorld(ranks int, fn func(*mpi.Comm) error) (connectMs float64, err error) {
	addrs, err := freeAddrs(ranks)
	if err != nil {
		return 0, err
	}
	connected := make([]time.Duration, ranks)
	start := time.Now()
	err = eachRank(ranks, func(rank int) error {
		comm, world, err := mpi.ConnectTCP(rank, addrs, 30*time.Second)
		if err != nil {
			return err
		}
		defer world.Close()
		connected[rank] = time.Since(start)
		return fn(comm)
	})
	return ms(slices.Max(connected)), err
}

// collectiveRTT runs rounds epochs' worth of collectives on comm and returns
// the per-round times in microseconds, as a non-root rank sees them: it sends
// its frame up the reduction tree and gets the root's broadcast back, which
// is one round trip.
func collectiveRTT(comm *mpi.Comm, payload []byte, rounds int) (reduce, barrier []float64, err error) {
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := comm.ReduceMerge(0, payload, epoch.MergeWire); err != nil {
			return nil, nil, err
		}
		if _, err := comm.Bcast(0, []byte{0}); err != nil {
			return nil, nil, err
		}
		reduce = append(reduce, us(time.Since(start)))
	}
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := comm.IBarrier().Wait(); err != nil {
			return nil, nil, err
		}
		barrier = append(barrier, us(time.Since(start)))
	}
	return reduce, barrier, nil
}

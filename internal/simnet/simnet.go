// Package simnet is the virtual-cluster performance model that regenerates
// the paper's 16-node experiments (Figures 2-4, Table II) on a single
// machine.
//
// Why it exists: the paper's evaluation runs on 16 dual-socket compute
// nodes (384 cores) connected by Intel OmniPath. This reproduction has one
// machine, so genuine wall-clock scaling beyond the local core count is
// unobservable. Instead of inventing numbers, simnet executes the *real*
// algorithm — real graphs, real bidirectional-BFS samples, the real
// calibration, the real non-monotone stopping condition — and only the
// *clock* is modeled: each simulated thread is charged the empirically
// measured per-sample cost, and each message is charged latency plus
// bytes/bandwidth, following the classic alpha-beta (LogP-style) model.
// The epoch/sample/communication trajectory is therefore the true one; the
// reported times are the model's.
//
// Model structure per epoch of paper Algorithm 2 (all W = P*T threads
// sample continuously; only the coordinator thread of each process blocks,
// and only during the blocking reduction):
//
//	D_epoch = n0*s + t_trans + t_barrier + t_reduce + t_check + t_bcast
//	intake  = W*(n0*s + t_trans + t_barrier + t_bcast)/s        (overlapped)
//	        + (W-1)*(t_reduce + t_check)/s                      (coordinator stalls)
//
// where s is the measured mean per-sample cost, t_barrier models the skew
// between processes reaching the barrier (proportional to the standard
// deviation of sample costs — heavy-tailed sampling on web graphs produces
// the large "B" column of Table II), and t_reduce follows the binomial
// reduction tree: ceil(log2 P) * (alpha + F/beta) for frames of F bytes.
//
// The single-node NUMA observation of §IV-E (one MPI process per socket is
// 20-30% faster than one spanning both) is modeled by the NUMAPenalty
// multiplier applied to the per-sample cost of configurations that span
// sockets with one process — including the shared-memory baseline of
// Ref. 24, which is exactly how the paper explains outperforming it on a
// single node.
package simnet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bfs"
	"repro/internal/epoch"
	"repro/internal/graph"
	"repro/internal/kadabra"
	"repro/internal/rng"
)

// Model describes the simulated cluster. DefaultModel matches the paper's
// testbed.
type Model struct {
	// Nodes is the number of compute nodes (paper: 1..16).
	Nodes int
	// SocketsPerNode is the number of NUMA sockets = MPI processes per node
	// (paper: 2, one process per socket, §IV-E).
	SocketsPerNode int
	// ThreadsPerSocket is T, the sampling threads per process (paper: 12).
	ThreadsPerSocket int
	// AlphaNet is the per-message network latency (OmniPath ~1.5us MPI
	// latency).
	AlphaNet time.Duration
	// BetaNet is the network bandwidth in bytes/second (OmniPath 100 Gbit/s
	// ~ 12.5e9 B/s).
	BetaNet float64
	// BetaMem is the intra-node shared-memory aggregation bandwidth
	// (bytes/second) used for the node-local reduction of §IV-E.
	BetaMem float64
	// NUMAPenalty multiplies the per-sample cost when a single process
	// spans multiple sockets (paper §IV-E: 20-30% ⇒ 1.25).
	NUMAPenalty float64
	// SkewFactor scales the modeled barrier-entry skew between processes.
	SkewFactor float64
	// FixedSampleCost, when > 0, bypasses empirical per-sample cost
	// measurement (deterministic tests). FixedSampleStd sets the modeled
	// cost spread.
	FixedSampleCost time.Duration
	FixedSampleStd  time.Duration
}

// DefaultModel returns the paper's cluster at the given node count:
// dual-socket Xeon Gold 6126 (2 sockets x 12 cores), OmniPath interconnect.
func DefaultModel(nodes int) Model {
	return Model{
		Nodes:            nodes,
		SocketsPerNode:   2,
		ThreadsPerSocket: 12,
		AlphaNet:         1500 * time.Nanosecond,
		BetaNet:          12.5e9,
		BetaMem:          40e9,
		NUMAPenalty:      1.25,
		SkewFactor:       1.0,
	}
}

// Procs returns the number of MPI processes (P).
func (m Model) Procs() int { return m.Nodes * m.SocketsPerNode }

// Workers returns the total sampling thread count (P*T).
func (m Model) Workers() int { return m.Procs() * m.ThreadsPerSocket }

// Times is the virtual-clock phase breakdown (the paper's Fig. 2b series).
type Times struct {
	Diameter    time.Duration // sequential, from a real measurement
	Calibration time.Duration // parallel sampling + sequential tail
	Sampling    time.Duration // adaptive sampling phase (ADS)
	Transition  time.Duration // epoch transitions (overlapped)
	Barrier     time.Duration // non-blocking barrier skew (overlapped)
	Reduce      time.Duration // blocking reduction (not overlapped)
	Check       time.Duration // stopping-condition checks at rank 0
}

// Total returns the end-to-end virtual duration.
func (t Times) Total() time.Duration { return t.Diameter + t.Calibration + t.Sampling }

// Result reports one simulated run.
type Result struct {
	// Betweenness and Tau come from the genuinely executed algorithm.
	Betweenness []float64
	Tau         int64
	Omega       float64
	Epochs      int
	// Times is the virtual-clock breakdown.
	Times Times
	// SampleCost is the measured (or injected) mean per-sample cost;
	// SampleStd its standard deviation.
	SampleCost time.Duration
	SampleStd  time.Duration
	// CommVolumePerEpoch is the mean aggregation traffic per epoch in bytes
	// (Table II "Com."), computed from the actual sparse/dense wire
	// encoding of each simulated epoch's state frame.
	CommVolumePerEpoch int64
	// SamplesPerSecPerNode is the ADS throughput normalized by node count
	// (Fig. 3b's y-axis).
	SamplesPerSecPerNode float64
}

// measureSampling takes count real samples, returns (counts, connectedTau)
// and the measured mean/std per-sample cost.
func measureSampling(sampler *bfs.Sampler, counts []int64, count int64) (mean, std time.Duration) {
	var sum, sumSq float64
	for i := int64(0); i < count; i++ {
		start := time.Now()
		internal, ok := sampler.Sample()
		el := float64(time.Since(start))
		sum += el
		sumSq += el * el
		if ok {
			for _, v := range internal {
				counts[v]++
			}
		}
	}
	m := sum / float64(count)
	variance := sumSq/float64(count) - m*m
	if variance < 0 {
		variance = 0
	}
	return time.Duration(m), time.Duration(math.Sqrt(variance))
}

// Simulate runs KADABRA under paper Algorithm 2 semantics on the virtual
// cluster m and returns the modeled result. cfg.Eps/Delta/Seed control the
// algorithm exactly as in a real run.
func Simulate(g *graph.Graph, m Model, cfg kadabra.Config) (*Result, error) {
	return simulate(g, m, cfg, false)
}

// SimulateSharedMemoryBaseline models the state-of-the-art shared-memory
// algorithm of Ref. 24 running on ONE compute node with
// SocketsPerNode*ThreadsPerSocket threads. One process spans both sockets,
// so the NUMA penalty applies to every sample (§IV-E) and there is no
// inter-process communication.
func SimulateSharedMemoryBaseline(g *graph.Graph, m Model, cfg kadabra.Config) (*Result, error) {
	mm := m
	mm.Nodes = 1
	return simulate(g, mm, cfg, true)
}

func simulate(g *graph.Graph, m Model, cfg kadabra.Config, shmBaseline bool) (*Result, error) {
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("simnet: need at least 2 vertices")
	}
	if m.Nodes < 1 || m.SocketsPerNode < 1 || m.ThreadsPerSocket < 1 {
		return nil, fmt.Errorf("simnet: invalid model %+v", m)
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.01
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	if cfg.StartFactor == 0 {
		cfg.StartFactor = 100
	}
	n := g.NumNodes()

	procs := m.Procs()
	threads := m.ThreadsPerSocket
	if shmBaseline {
		// One process spanning the whole node.
		procs = 1
		threads = m.SocketsPerNode * m.ThreadsPerSocket
	}
	workers := procs * threads

	var times Times

	// Phase 1: diameter. The computation is sequential in the paper and
	// here, and the simulated node's core is the host's core, so the real
	// measured time is the virtual time.
	var vd int
	vd, times.Diameter = kadabra.UndirectedWorkload(g).ResolveDiameter(cfg)
	omega := kadabra.Omega(vd, cfg.Eps, cfg.Delta)

	sampler := bfs.NewSampler(g, rng.NewRand(cfg.Seed))
	counts := make([]int64, n)
	var tau int64

	// Phase 2: calibration. tau0 real samples, timed to calibrate the
	// per-sample cost model; virtual time is the perfectly parallel share
	// plus the sequential Calibrate tail (measured for real).
	tau0 := int64(omega)/int64(cfg.StartFactor) + 1
	var sampleCost, sampleStd time.Duration
	if m.FixedSampleCost > 0 {
		sampleCost, sampleStd = m.FixedSampleCost, m.FixedSampleStd
		for i := int64(0); i < tau0; i++ {
			internal, ok := sampler.Sample()
			if ok {
				for _, v := range internal {
					counts[v]++
				}
			}
		}
	} else {
		sampleCost, sampleStd = measureSampling(sampler, counts, tau0)
		if sampleCost <= 0 {
			sampleCost = time.Nanosecond
		}
	}
	tau = tau0
	// NUMA penalty: a process spanning sockets pays it on every access.
	effCost := float64(sampleCost)
	spansSockets := shmBaseline && m.SocketsPerNode > 1
	if spansSockets {
		effCost *= m.NUMAPenalty
	}

	calSeqStart := time.Now()
	cal := kadabra.Calibrate(counts, tau, omega, cfg.Eps, cfg.Delta)
	calSeqTime := time.Since(calSeqStart)
	denseFrameB := int64(n+1) * 8
	// The calibration reduction ships the sparse wire encoding of the real
	// calibration state (dense automatically once it passes the cutover).
	calFrame := epoch.NewStateFrame(n)
	for v, c := range counts {
		calFrame.AddCount(uint32(v), c)
	}
	calFrame.Tau = tau
	calFB := int64(len(epoch.AppendWire(nil, calFrame, false)))
	times.Calibration = time.Duration(float64(tau0)*effCost/float64(workers)) +
		calSeqTime + m.reduceCost(calFB, procs, shmBaseline)

	// Phase 3: epochs.
	n0 := cfg.EpochLength(workers)
	tTrans := 2 * time.Microsecond // forceTransition round trip, §IV-B O(T)
	tBarrier := m.barrierSkew(sampleStd, n0, procs, spansSockets)
	tBcast := m.bcastCost(procs)
	// Stopping-condition cost at rank 0: the amortized check re-evaluates
	// the cached failing vertex first, so a failing epoch costs a handful of
	// bound evaluations; only the final (successful) epoch pays the full
	// O(n) sweep, charged after the loop.
	const checkSteady = 25 * time.Nanosecond
	checkFinal := time.Duration(float64(n) * 3) // ~3ns per vertex, two bound evals

	// Per-epoch wall time and sample intake (see package comment). The
	// reduction is charged for the sparse wire encoding of the epoch's
	// actual frame; since the frame isn't known until the epoch's samples
	// are drawn, the intake feedback uses the previous epoch's frame size
	// (dense bound initially), while the time accounting charges each
	// epoch's own.
	tReduce := m.reduceCost(denseFrameB, procs, shmBaseline)
	ef := epoch.NewStateFrame(n)
	var wireScratch []byte
	var commTotal int64
	epochs := 0
	for !cal.HaveToStop(counts, tau) {
		overlapped := time.Duration(float64(n0)*effCost) + tTrans + tBarrier + tBcast
		stalled := tReduce + checkSteady
		intake := int64(float64(workers)*float64(overlapped)/effCost) +
			int64(float64(workers-1)*float64(stalled)/effCost)
		if intake < 1 {
			intake = 1
		}
		for i := int64(0); i < intake; i++ {
			internal, ok := sampler.Sample()
			if ok {
				for _, v := range internal {
					counts[v]++
					ef.Bump(v)
				}
			}
		}
		ef.Tau = intake
		wireScratch = epoch.AppendWire(wireScratch[:0], ef, false)
		fb := int64(len(wireScratch))
		ef.Reset()
		tReduce = m.reduceCost(fb, procs, shmBaseline)
		commTotal += m.commVolume(fb, procs, shmBaseline)

		tau += intake
		epochs++
		times.Sampling += overlapped + tReduce + checkSteady
		times.Transition += tTrans
		times.Barrier += tBarrier
		times.Reduce += tReduce
		times.Check += checkSteady
	}
	// The successful final check sweeps all n vertices before returning
	// true (f/g are non-monotone, nothing may be pruned).
	times.Check += checkFinal
	times.Sampling += checkFinal

	bt := make([]float64, n)
	for v, c := range counts {
		bt[v] = float64(c) / float64(tau)
	}
	commPerEpoch := int64(0)
	if epochs > 0 {
		commPerEpoch = commTotal / int64(epochs)
	}
	res := &Result{
		Betweenness:        bt,
		Tau:                tau,
		Omega:              omega,
		Epochs:             epochs,
		Times:              times,
		SampleCost:         sampleCost,
		SampleStd:          sampleStd,
		CommVolumePerEpoch: commPerEpoch,
	}
	if times.Sampling > 0 {
		res.SamplesPerSecPerNode = float64(tau-tau0) / times.Sampling.Seconds() / float64(m.Nodes)
	}
	return res, nil
}

// reduceCost models the epoch aggregation: a node-local shared-memory
// reduction over the sockets of each node, then a binomial tree over node
// leaders (paper §IV-E). The shared-memory baseline has no aggregation
// cost beyond its in-process epoch framework (modeled as memory-bandwidth
// bound frame merging).
func (m Model) reduceCost(frameBytes int64, procs int, shmBaseline bool) time.Duration {
	if shmBaseline || procs <= 1 {
		// In-process aggregation of T frames: memory-bandwidth bound.
		return time.Duration(float64(frameBytes*int64(m.ThreadsPerSocket)) / m.BetaMem * 1e9)
	}
	local := time.Duration(float64(frameBytes*int64(m.SocketsPerNode-1)) / m.BetaMem * 1e9)
	depth := ceilLog2(m.Nodes)
	global := time.Duration(depth) * (m.AlphaNet + time.Duration(float64(frameBytes)/m.BetaNet*1e9))
	return local + global
}

// barrierSkew models the IBarrier wait: processes finish their n0-sample
// block at times spread by the sampling-cost variance; the expected maximum
// of P Gaussian spreads is sigma*sqrt(2 ln P).
func (m Model) barrierSkew(sampleStd time.Duration, n0 int, procs int, spansSockets bool) time.Duration {
	if procs <= 1 {
		return 0
	}
	sigma := float64(sampleStd) * math.Sqrt(float64(n0))
	if spansSockets {
		sigma *= m.NUMAPenalty
	}
	skew := m.SkewFactor * sigma * math.Sqrt(2*math.Log(float64(procs)))
	return time.Duration(skew) + time.Duration(ceilLog2(procs))*m.AlphaNet
}

// bcastCost models the termination-flag broadcast (one byte, latency-bound).
func (m Model) bcastCost(procs int) time.Duration {
	if procs <= 1 {
		return 0
	}
	return time.Duration(ceilLog2(procs)) * m.AlphaNet
}

// commVolume models Table II's per-epoch communication volume: one frame
// over each reduction-tree edge, counting both the node-local transfers and
// the global tree, plus the broadcast flags.
func (m Model) commVolume(frameBytes int64, procs int, shmBaseline bool) int64 {
	if shmBaseline || procs <= 1 {
		return 0
	}
	return int64(procs-1)*frameBytes + int64(procs-1)
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	k := 0
	for v := x - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

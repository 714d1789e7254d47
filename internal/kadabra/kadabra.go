package kadabra

import (
	"math"
	"time"
)

// Config collects the parameters of a KADABRA session, whatever its shape
// (one thread, several, or the ranks of a distributed session; all follow
// one check schedule, and internal/core's Algorithm2 advances all of them).
type Config struct {
	// Eps is the absolute approximation error (paper: 0.001 for the main
	// experiments; smaller values sharply increase running time).
	Eps float64
	// Delta is the failure probability (paper: 0.1).
	Delta float64
	// Seed makes runs reproducible; worker streams are split from it.
	Seed uint64
	// StartFactor controls the number of calibration samples:
	// tau0 = omega/StartFactor (default 100, as in the original code).
	StartFactor int
	// EpochBase and EpochSkew set the epoch length of the check schedule:
	// thread 0 takes n0 = EpochBase / W^EpochSkew samples per epoch, where W
	// is the total number of sampling threads (P*T in the distributed
	// setting), and the stopping rule is checked after each epoch: at tau0,
	// then every n0 samples at one thread, and at the first tau >= omega.
	// The paper (§IV-D) decreases the epoch length as workers are added
	// because every worker keeps sampling during the epoch; defaults
	// EpochBase=1000, EpochSkew=0.33.
	EpochBase float64
	EpochSkew float64
	// VertexDiameter, when positive, skips the diameter phase and uses the
	// given value (useful when the caller has computed it already).
	VertexDiameter int
	// OnEpoch, when non-nil, is invoked after every stopping check with a
	// consistent Progress observation. It runs on the coordinator thread
	// between two epochs, so it must be cheap; it exists for progress
	// reporting and convergence tracing. Registering it makes
	// every epoch pay the O(n) achieved-eps sweep on top of the amortized
	// O(1) stopping check.
	OnEpoch func(Progress)
	// MaxSamples, when positive, is a sampling budget: the run stops once
	// the consistent sample count tau reaches it, even if the adaptive
	// stopping rule has not been satisfied. The result then carries
	// Converged == false and reports the guarantee actually achieved in
	// AchievedEps.
	MaxSamples int64
	// MaxDuration, when positive, is a wall-clock budget for one run,
	// measured from its entry (so it covers the calibration phase too).
	// Every engine stops within one epoch of the deadline and reports the
	// achieved guarantee, like MaxSamples.
	MaxDuration time.Duration
	// TopK, when positive, replaces the uniform stopping rule by the
	// certified top-k rule: stop once the k top vertices' confidence
	// intervals separate from everyone else's (or shrink below Eps, or tau
	// reaches omega). Must be below the vertex count. It is part of the
	// session state (and of its checkpoints), so every engine that advances
	// the state checks it.
	TopK int
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 0.01
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.StartFactor == 0 {
		c.StartFactor = 100
	}
	if c.EpochBase == 0 {
		c.EpochBase = 1000
	}
	if c.EpochSkew == 0 {
		c.EpochSkew = 0.33
	}
	return c
}

// EpochLength returns n0 for a run with totalWorkers sampling threads,
// clamped below at 16 samples so epochs never degenerate.
func (c Config) EpochLength(totalWorkers int) int {
	cfg := c.withDefaults()
	n0 := cfg.EpochBase / math.Pow(float64(totalWorkers), cfg.EpochSkew)
	if n0 < 16 {
		n0 = 16
	}
	return int(n0)
}

// Progress is one consistent observation of a running estimate, delivered
// to Config.OnEpoch after every epoch (every stopping check) and by the
// anytime estimator's Snapshot.
type Progress struct {
	// Epoch is the 1-based index of the completed epoch (stopping check).
	Epoch int
	// Tau is the number of samples in the consistent aggregated state.
	Tau int64
	// AchievedEps is the anytime guarantee currently held: with
	// probability 1-delta, every estimate is within AchievedEps of the
	// truth. It is 1 (vacuous) before calibration and tightens toward the
	// target eps as sampling proceeds; past omega it is the target eps.
	AchievedEps float64
	// SamplesPerSec is the observed sampling throughput, averaged over the
	// calibration and adaptive phases so far.
	SamplesPerSec float64
}

// Budget bounds one run of a session: an absolute cap on the consistent
// sample count tau, plus a wall-clock deadline. The zero value means
// unbounded. A budget-stopped run leaves the state consistent and
// resumable; the result reports the guarantee actually achieved.
type Budget struct {
	// MaxSamples, when positive, stops the run once tau reaches it. One
	// thread on one rank stops at exactly this tau; more threads or ranks
	// may overshoot by the other threads' share of one epoch (of one
	// calibration share per thread, in phase 2).
	MaxSamples int64
	// Deadline, when non-zero, stops the run once the wall clock passes
	// it, within one epoch.
	Deadline time.Time
}

// NewBudget resolves the Config budget fields against a start instant.
func (c Config) NewBudget(start time.Time) Budget {
	b := Budget{MaxSamples: c.MaxSamples}
	if c.MaxDuration > 0 {
		b.Deadline = start.Add(c.MaxDuration)
	}
	return b
}

// Exceeded reports whether the budget has run out at the given tau.
func (b Budget) Exceeded(tau int64) bool {
	if b.MaxSamples > 0 && tau >= b.MaxSamples {
		return true
	}
	return b.Overdue()
}

// Overdue reports whether the wall-clock deadline has passed.
func (b Budget) Overdue() bool {
	return !b.Deadline.IsZero() && !time.Now().Before(b.Deadline)
}

// Timings records wall-clock time per phase, the raw material of the
// paper's Figure 2b breakdown.
type Timings struct {
	Diameter    time.Duration
	Calibration time.Duration
	Sampling    time.Duration // adaptive sampling phase, total
	// Within the sampling phase:
	Transition time.Duration // waiting for epoch transitions (overlapped)
	Barrier    time.Duration // non-blocking barrier waits (overlapped)
	Reduce     time.Duration // blocking aggregation (not overlapped)
	Check      time.Duration // stopping-condition evaluation
}

// Result is the output of a KADABRA session.
type Result struct {
	// Betweenness holds btilde(x) = ctilde(x)/tau for every vertex.
	Betweenness []float64
	// Tau is the number of samples in the final consistent state.
	Tau int64
	// Omega is the static maximal sample count.
	Omega float64
	// VertexDiameter is the value used for omega.
	VertexDiameter int
	// Epochs is the number of stopping checks made, the first right after
	// the calibration batch; each closes an epoch.
	Epochs int
	// AchievedEps is the guarantee actually achieved: with probability
	// 1-delta every estimate is within AchievedEps of the truth. It is at
	// most the target eps when Converged, and the honest (looser) anytime
	// bound when a budget stopped the run early.
	AchievedEps float64
	// Converged reports whether the adaptive stopping rule was satisfied
	// (or tau reached omega); false means a sampling budget ended the run
	// before the target eps was reached.
	Converged bool
	// Timings is the per-phase wall-clock breakdown.
	Timings Timings
	// Lower and Upper are per-vertex confidence bounds, set under the
	// top-k rule (Config.TopK) only: with probability 1-delta,
	// Lower[v] <= b(v) <= Upper[v] for all v simultaneously. Past omega
	// they are btilde(v) -/+ eps, clamped to [0, 1].
	Lower, Upper []float64
	// Separated reports whether the top-k rule holds by a clean separation
	// of the top set (true) rather than by the eps resolution limit, omega,
	// or not yet at all (false).
	Separated bool
}

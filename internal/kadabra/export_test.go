package kadabra

import (
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/rng"
)

// Views of unexported state for this package's external tests, which drive
// the state through core.Algorithm2 and so cannot live inside the package
// (core imports it).

const (
	EngineSequential   = engineSequential
	EngineSharedMemory = engineSharedMemory
)

// FBound and GBound are the reference bound functions the tests hold
// fBoundLog and gBoundLog to.
var (
	FBound = fBound
	GBound = gBound
)

// Omega returns the static maximal sample count for the current targets.
func (st *EstimatorState) Omega() float64 { return st.omega }

// Frame returns the accumulated state frame.
func (st *EstimatorState) Frame() *epoch.StateFrame { return st.s }

// Tau0 returns the size of the calibration batch.
func (st *EstimatorState) Tau0() int64 { return st.tau0() }

// Cal returns the failure budgets (nil before calibration).
func (st *EstimatorState) Cal() *Calibration { return st.cal }

// Streams returns the worker RNG streams.
func (st *EstimatorState) Streams() []*rng.Rand { return st.streams }

// DerivedState returns the cached logs and the sweep order Calibrate
// precomputes for the amortized check.
func (c *Calibration) DerivedState() (logDL, logDU []float64, order []uint32) {
	return c.logDL, c.logDU, c.order
}

// WrapSampler returns a copy of w whose samplers wrap decorates.
func (w Workload) WrapSampler(wrap func(Sampler) Sampler) Workload {
	inner := w.NewSampler
	w.NewSampler = func(r *rng.Rand) Sampler { return wrap(inner(r)) }
	return w
}

// CountKernelResolutions counts how often an unweighted workload's kernel
// memo, shared by all copies of w, resolves its kernel data. Call it before
// w's first sampler.
func CountKernelResolutions(w Workload) *atomic.Int32 {
	var n atomic.Int32
	inner := w.kernel.resolve
	w.kernel.resolve = func() kernelData {
		n.Add(1)
		return inner()
	}
	return &n
}

package epoch

import (
	"sync"
	"sync/atomic"
	"time"
)

// batchPoll is how many calibration samples a thread draws between two
// evaluations of Batch's stop predicate.
const batchPoll = 256

// Driver runs the in-process half of paper Algorithm 2 over a Framework:
// thread t of the framework calls sample[t] and nothing else, so the
// choreography is independent of what a sample is. All methods are called
// by the coordinating goroutine (thread 0); the order is any number of
// Batch calls, Start, any interleaving of Sample and Epoch, Stop.
type Driver struct {
	fw     *Framework
	sample []func(*StateFrame)
	done   atomic.Bool
	wg     sync.WaitGroup
}

// NewDriver binds one sample function per thread of fw. sample[t] records
// one sample into the frame it is handed (advancing Tau) and is only ever
// called from one goroutine at a time.
func NewDriver(fw *Framework, sample []func(*StateFrame)) *Driver {
	if len(sample) != fw.t {
		panic("epoch: need one sample function per thread")
	}
	return &Driver{fw: fw, sample: sample}
}

// Batch is the non-adaptive fan-out of the calibration phase: every thread
// draws up to per samples into its framework frame, giving up as soon as
// stop (evaluated every batchPoll samples, from all threads at once)
// reports true, and the frames are summed into dst in thread order and
// zeroed. It returns when every thread has finished; call it only before
// Start, while all threads still sit in the same epoch.
func (d *Driver) Batch(per int, stop func() bool, dst *StateFrame) {
	var wg sync.WaitGroup
	for t := range d.sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample, sf := d.sample[t], d.fw.Frame(t)
			for i := 0; i < per; i++ {
				if i%batchPoll == 0 && stop() {
					break
				}
				sample(sf)
			}
		}()
	}
	wg.Wait()
	d.fw.AggregateEpoch(d.fw.epochs[0].v.Load(), dst)
}

// Start launches the sampling threads 1..T-1 (Alg. 2 lines 5-9): each
// samples into its current frame and follows every transition thread 0
// forces, wait-free, until Stop.
func (d *Driver) Start() {
	for t := 1; t < len(d.sample); t++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			sample, sf := d.sample[t], d.fw.Frame(t)
			for !d.done.Load() {
				sample(sf)
				if d.fw.checkTransition(t) {
					sf = d.fw.Frame(t)
				}
			}
			for d.fw.checkTransition(t) {
			}
		}()
	}
}

// Sample takes one sample into thread 0's current frame. Between two Epoch
// calls that frame already belongs to the next epoch, so this is what the
// coordinator runs while it waits on communication (Alg. 2 lines 21/27).
//
//bc:hotpath
func (d *Driver) Sample() {
	d.sample[0](d.fw.Frame(0))
}

// Epoch runs one epoch on thread 0 (Alg. 2 lines 12-18): n0 samples into
// the current frame, a forced transition with sampling into the next frame
// until every thread has followed, then the frozen frames of the finished
// epoch summed into dst and zeroed. It returns the time spent waiting for
// the transition.
func (d *Driver) Epoch(n0 int, dst *StateFrame) time.Duration {
	sample, sf := d.sample[0], d.fw.Frame(0)
	for i := 0; i < n0; i++ {
		sample(sf)
	}
	ts := time.Now()
	e := d.fw.forceTransition()
	next := d.fw.Frame(0)
	for !d.fw.transitionDone(e) {
		sample(next)
	}
	wait := time.Since(ts)
	d.fw.AggregateEpoch(e-1, dst)
	return wait
}

// Stop ends the sampling threads and returns once they have exited. Samples
// left in unaggregated frames (at most one frame per thread) are dropped,
// which is statistically neutral: they are discarded independently of
// their values. Calling Stop again, or without Start, is harmless.
func (d *Driver) Stop() {
	d.done.Store(true)
	d.wg.Wait()
}

// Package epoch implements the epoch-based framework of van der Grinten,
// Angriman and Meyerhenke (Euro-Par 2019, the paper's Ref. 24): a wait-free
// mechanism that lets one coordinator thread aggregate per-thread sampling
// states ("state frames") from T sampling threads without ever blocking
// them, while fully overlapping the aggregation with further sampling.
//
// The paper's §IV-B describes the mechanism as a specialized non-blocking,
// asymmetric barrier with two operations:
//
//   - forceTransition(e): called only by thread 0 in epoch e; initiates an
//     epoch transition and immediately advances thread 0 to epoch e+1.
//     Thread 0 then monitors completion (transitionDone) while sampling.
//   - checkTransition(e): called by threads t != 0 in epoch e; if a
//     transition has been initiated, the thread advances to epoch e+1 and
//     the call returns true, otherwise it is a no-op returning false.
//
// All three calls are unexported: the order in which threads must make them
// (sample, check, follow; force, sample until done, aggregate; drain on
// shutdown) is written once, in Driver (driver.go), generic over what a
// sample is. Its two callers are the per-process half of the one
// betweenness engine (core.Algorithm2, which every backend runs) and a
// non-betweenness estimator (examples/adaptivesampling).
//
// Once every thread has advanced past e, the epoch-e state frames are
// immutable and thread 0 may read them without synchronization (the
// happens-before edge is established by each thread's atomic epoch store
// and thread 0's atomic load).
//
// Each thread owns exactly two state frames, indexed by epoch parity: the
// algorithm guarantees no thread touches frames of epoch e-2 once epoch e
// has begun (paper §IV-C), so frames are reused ping-pong style. Thread 0
// zeroes a frame right after consuming it, which happens strictly before
// the owning thread can reach the epoch that writes it again.
//
// # Sparse state frames
//
// One epoch only increments a vanishing fraction of the count vector: the
// coordinator takes n0 = EpochBase/W^EpochSkew samples per epoch and each
// sample touches ~avg-path-length vertices, so for large n the per-epoch
// aggregate/reset cost would be dominated by O(T·n) dense vector work, not
// by what was actually sampled. StateFrame therefore maintains a
// touched-vertex list on first increment: samplers record counts through
// Bump, and Reset, Add, and AggregateEpoch run in O(touched) instead of
// O(n). When an epoch touches more than DenseCutover(n) distinct vertices
// the frame abandons the list and falls back to dense iteration, so
// huge-epoch (or tiny-graph) runs never regress past the classic dense
// cost. The same representation feeds the MPI reduction wire format (see
// wire.go), so aggregation cost scales with samples everywhere.
package epoch

import (
	"fmt"
	"sync/atomic"
)

// DenseCutover returns the touched-vertex count above which a frame of
// vector length n abandons sparse tracking: past n/8 distinct vertices the
// dense sequential sweep is at least as cheap as random-access sparse
// iteration plus list maintenance. The floor keeps tiny frames trivially
// sparse (a list of up to 16 vertices is always cheap to maintain).
func DenseCutover(n int) int {
	c := n / 8
	if c < 16 {
		c = 16
	}
	return c
}

// StateFrame is one thread's sampling state for one epoch: the number of
// samples Tau and the per-vertex path counts C (c-tilde in the paper).
//
// All mutation must go through Bump, Add, and Reset so the touched-vertex
// bookkeeping stays consistent; C is exported for read access only
// (stopping checks, finalization). The zero value is not usable; call
// NewStateFrame.
type StateFrame struct {
	Tau int64
	C   []int64

	// touched lists the vertices with C[v] != 0, in first-increment order,
	// while the frame is sparse. Meaningless once dense.
	touched []uint32
	// dense marks that the touched list overflowed DenseCutover: Reset and
	// Add iterate the full vector.
	dense   bool
	cutover int
}

// NewStateFrame returns a zeroed state frame of the given vector length.
func NewStateFrame(n int) *StateFrame {
	return &StateFrame{C: make([]int64, n), cutover: DenseCutover(n)}
}

// Dense reports whether the frame is currently on the dense path.
func (sf *StateFrame) Dense() bool { return sf.dense }

// TouchedLen returns the number of distinct touched vertices while sparse;
// it is meaningless (0) on the dense path.
func (sf *StateFrame) TouchedLen() int { return len(sf.touched) }

// Bump increments C[v] by one, recording v in the touched list on its
// first increment. This is the sampler-facing hot path: one bounds-checked
// load, one predictable branch, one store in the common case.
//
//bc:hotpath
func (sf *StateFrame) Bump(v uint32) {
	if sf.C[v] == 0 && !sf.dense {
		sf.touch(v)
	}
	sf.C[v]++
}

// AddCount adds c to C[v] with touched-list maintenance: the bulk variant
// of Bump for callers that replay aggregated counts into a frame
// (checkpoint restore). It does not advance Tau.
func (sf *StateFrame) AddCount(v uint32, c int64) { sf.addCount(v, c) }

// addCount adds c (> 0 in practice) to C[v] with touched maintenance.
func (sf *StateFrame) addCount(v uint32, c int64) {
	if c == 0 {
		return
	}
	if sf.C[v] == 0 && !sf.dense {
		sf.touch(v)
	}
	sf.C[v] += c
}

// touch appends v to the touched list, flipping to dense at the cutover.
func (sf *StateFrame) touch(v uint32) {
	if len(sf.touched) >= sf.cutover {
		sf.dense = true
		sf.touched = sf.touched[:0]
		return
	}
	sf.touched = append(sf.touched, v)
}

// Reset zeroes the frame in place: O(touched) while sparse, O(n) once
// dense. A dense frame returns to sparse tracking — the next epoch starts
// with an empty touched list either way.
func (sf *StateFrame) Reset() {
	sf.Tau = 0
	if sf.dense {
		clear(sf.C)
		sf.dense = false
		return
	}
	for _, v := range sf.touched {
		sf.C[v] = 0
	}
	sf.touched = sf.touched[:0]
}

// Add accumulates src into sf in O(src touched) while src is sparse (O(n)
// once src is dense). The destination maintains its own touched list, so
// accumulator frames (the global state S) cut over to dense on their own
// as they fill up.
func (sf *StateFrame) Add(src *StateFrame) {
	sf.Tau += src.Tau
	if src.dense {
		for i, c := range src.C {
			if c != 0 {
				sf.addCount(uint32(i), c)
			}
		}
		return
	}
	for _, v := range src.touched {
		sf.addCount(v, src.C[v])
	}
}

// padded prevents false sharing between the per-thread epoch counters; the
// sampling threads store to their own counter on every checkTransition.
type padded struct {
	v atomic.Uint64
	_ [56]byte
}

// Framework coordinates T threads. Thread indices are 0..T-1; index 0 is the
// coordinator. The zero value is not usable; call New.
type Framework struct {
	t      int
	target atomic.Uint64 // epoch every thread should advance to
	epochs []padded      // epochs[i]: current epoch of thread i
	frames [][2]*StateFrame
}

// New creates a framework for t threads with state-frame vectors of length n.
func New(t, n int) *Framework {
	if t < 1 {
		panic("epoch: need at least one thread")
	}
	f := &Framework{
		t:      t,
		epochs: make([]padded, t),
		frames: make([][2]*StateFrame, t),
	}
	for i := range f.frames {
		f.frames[i] = [2]*StateFrame{NewStateFrame(n), NewStateFrame(n)}
	}
	return f
}

// Frame returns the state frame thread t writes during its current epoch.
// Only thread t may write to it.
func (f *Framework) Frame(t int) *StateFrame {
	return f.frames[t][f.epochs[t].v.Load()&1]
}

// checkTransition is the sampling-thread side of the barrier (paper §IV-B).
// Called by thread t (t != 0); if thread 0 has initiated a transition past
// t's current epoch, t advances one epoch and the call returns true. The
// call is wait-free: one atomic load, plus one atomic store when advancing.
func (f *Framework) checkTransition(t int) bool {
	cur := f.epochs[t].v.Load()
	if f.target.Load() <= cur {
		return false
	}
	// Advance exactly one epoch per call; the new frame (parity of cur+1)
	// was consumed and zeroed by thread 0 during epoch cur, so it is clean.
	f.epochs[t].v.Store(cur + 1)
	return true
}

// forceTransition is the coordinator side: it initiates a transition from
// thread 0's current epoch e to e+1 and advances thread 0 immediately. It
// must only be called by thread 0, and only when no transition is in
// progress (i.e. after transitionDone(e) returned true for the previous
// epoch). Returns the new epoch of thread 0.
func (f *Framework) forceTransition() uint64 {
	e := f.epochs[0].v.Load()
	f.target.Store(e + 1)
	f.epochs[0].v.Store(e + 1)
	return e + 1
}

// transitionDone reports whether every thread has advanced to at least the
// given epoch. Thread 0 polls it while sampling into its next-epoch frame;
// the poll is O(T) as stated in the paper.
func (f *Framework) transitionDone(e uint64) bool {
	for i := range f.epochs {
		if f.epochs[i].v.Load() < e {
			return false
		}
	}
	return true
}

// AggregateEpoch sums every thread's frame of epoch e into dst and zeroes
// the source frames for reuse. It must only be called by thread 0, after
// the transition to e+1 has completed (so the epoch-e frames are frozen).
// dst must have the same vector length as the frames. The cost is
// O(total touched vertices) across the T frames, not O(T·n), unless a
// frame overflowed its density cutover.
func (f *Framework) AggregateEpoch(e uint64, dst *StateFrame) {
	for t := 0; t < f.t; t++ {
		src := f.frames[t][e&1]
		if len(src.C) != len(dst.C) {
			panic(fmt.Sprintf("epoch: frame length mismatch %d vs %d", len(src.C), len(dst.C)))
		}
		dst.Add(src)
		src.Reset()
	}
}

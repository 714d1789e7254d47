package epoch

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingSamples returns T sample functions that each record one sample
// (Tau and one bump) and count every draw in drawn.
func countingSamples(T, vecLen int, drawn *atomic.Int64) []func(*StateFrame) {
	sample := make([]func(*StateFrame), T)
	for t := range sample {
		v := uint32(t % vecLen)
		sample[t] = func(sf *StateFrame) {
			drawn.Add(1)
			sf.Tau++
			sf.Bump(v)
		}
	}
	return sample
}

// TestDriverConservation is the driver's safety property at T = 4: every
// sample any thread drew — in a calibration batch, in an epoch, between
// epochs, while a transition was pending — is either aggregated into dst or
// still sits in an unaggregated frame when Stop returns, and there is at
// most one such frame per thread.
func TestDriverConservation(t *testing.T) {
	const T, vecLen, epochs = 4, 8, 40
	var drawn atomic.Int64
	fw := New(T, vecLen)
	d := NewDriver(fw, countingSamples(T, vecLen, &drawn))
	dst := NewStateFrame(vecLen)

	d.Batch(1000, func() bool { return false }, dst)
	if dst.Tau != T*1000 || drawn.Load() != T*1000 {
		t.Fatalf("batch: aggregated %d, drew %d, want %d", dst.Tau, drawn.Load(), T*1000)
	}

	d.Start()
	for e := 0; e < epochs; e++ {
		d.Epoch(50, dst)
		d.Sample() // the overlap function, between two epochs
	}
	d.Stop()

	left := NewStateFrame(vecLen)
	for th := 0; th < T; th++ {
		a, b := fw.frames[th][0], fw.frames[th][1]
		if a.Tau != 0 && b.Tau != 0 {
			t.Errorf("thread %d holds two unaggregated frames at Stop (tau %d and %d)", th, a.Tau, b.Tau)
		}
		left.Add(a)
		left.Add(b)
	}
	if got, want := dst.Tau+left.Tau, drawn.Load(); got != want {
		t.Fatalf("lost or duplicated samples: aggregated %d + unaggregated %d, drew %d", dst.Tau, left.Tau, want)
	}
	var sumC int64
	for v := range dst.C {
		sumC += dst.C[v] + left.C[v]
	}
	if sumC != drawn.Load() {
		t.Fatalf("vector counts %d != %d drawn", sumC, drawn.Load())
	}
}

// TestDriverStopJoinsAndRepeats: Stop returns only after every sampling
// thread has exited (no draw and no goroutine is left behind), and a second
// Stop, or a Stop without Start, is harmless.
func TestDriverStopJoinsAndRepeats(t *testing.T) {
	NewDriver(New(2, 1), countingSamples(2, 1, new(atomic.Int64))).Stop()

	before := runtime.NumGoroutine()
	var drawn atomic.Int64
	d := NewDriver(New(4, 4), countingSamples(4, 4, &drawn))
	d.Start()
	d.Epoch(10, NewStateFrame(4))
	d.Stop()
	at := drawn.Load()
	d.Stop()
	// A thread that outlived Stop would show up as a draw or a goroutine;
	// give it a moment to.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before Start, %d after Stop", before, n)
	}
	if got := drawn.Load(); got != at {
		t.Fatalf("samples drawn after Stop returned: %d -> %d", at, got)
	}
}

// TestDriverSingleThreadEpochIsExact: with one thread a transition is done
// the moment it is forced, so Epoch(n0, dst) draws exactly n0 samples and
// aggregates all of them — what makes the T = 1 engines reproducible.
func TestDriverSingleThreadEpochIsExact(t *testing.T) {
	var drawn atomic.Int64
	d := NewDriver(New(1, 2), countingSamples(1, 2, &drawn))
	dst := NewStateFrame(2)
	d.Start()
	for e, n0 := range []int{7, 0, 130} {
		was := dst.Tau
		d.Epoch(n0, dst)
		if got := dst.Tau - was; got != int64(n0) {
			t.Fatalf("epoch %d: aggregated %d samples, want exactly %d", e, got, n0)
		}
	}
	d.Stop()
	if drawn.Load() != 137 {
		t.Fatalf("drew %d samples, want 137", drawn.Load())
	}
}

// TestDriverBatchStops: a batch polls its predicate before the first
// sample and every batchPoll samples, on every thread, and hands the
// framework's frames back empty for epoch 0.
func TestDriverBatchStops(t *testing.T) {
	var drawn atomic.Int64
	fw := New(3, 64)
	d := NewDriver(fw, countingSamples(3, 64, &drawn))
	dst := NewStateFrame(64)
	d.Batch(10*batchPoll, func() bool { return true }, dst)
	if dst.Tau != 0 || drawn.Load() != 0 {
		t.Fatalf("pre-stopped batch drew %d samples (aggregated %d)", drawn.Load(), dst.Tau)
	}
	d.Batch(10*batchPoll, func() bool { return drawn.Load() >= 3*batchPoll }, dst)
	if got := drawn.Load(); got < 3*batchPoll || got > 3*3*batchPoll || dst.Tau != got {
		t.Fatalf("stopped batch drew %d samples (aggregated %d), want within [%d, %d]",
			got, dst.Tau, 3*batchPoll, 3*3*batchPoll)
	}
	for th := 0; th < 3; th++ {
		if sf := fw.Frame(th); sf.Tau != 0 || sf.TouchedLen() != 0 {
			t.Fatalf("thread %d's frame not zeroed after the batch: tau %d, %d touched", th, sf.Tau, sf.TouchedLen())
		}
	}
}

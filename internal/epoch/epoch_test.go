package epoch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// bumpN records c increments of vertex v.
func bumpN(sf *StateFrame, v uint32, c int64) {
	for i := int64(0); i < c; i++ {
		sf.Bump(v)
	}
}

func TestStateFrameAddReset(t *testing.T) {
	a := NewStateFrame(3)
	b := NewStateFrame(3)
	a.Tau = 5
	bumpN(a, 0, 1)
	bumpN(a, 2, 2)
	b.Tau = 7
	bumpN(b, 0, 10)
	bumpN(b, 1, 20)
	b.Add(a)
	if b.Tau != 12 || b.C[0] != 11 || b.C[1] != 20 || b.C[2] != 2 {
		t.Fatalf("Add wrong: %+v", b)
	}
	a.Reset()
	if a.Tau != 0 || a.C[0] != 0 || a.C[2] != 0 || a.TouchedLen() != 0 {
		t.Fatalf("Reset wrong: %+v", a)
	}
}

// TestStateFrameSparseDenseEquivalence drives frames through a randomized
// Bump/Add/Reset schedule beside a plain []int64 reference that knows no
// touched list, and demands identical counts throughout — while the frame is
// sparse, after it crossed the density cutover on its own, and after Reset
// returned it to sparse tracking.
func TestStateFrameSparseDenseEquivalence(t *testing.T) {
	const n = 512
	r := rng.NewRand(7)
	sf, oth := NewStateFrame(n), NewStateFrame(n)
	ref, refOth := make([]int64, n), make([]int64, n)
	var refTau int64
	check := func(step string) {
		t.Helper()
		for v := 0; v < n; v++ {
			if sf.C[v] != ref[v] {
				t.Fatalf("%s: C[%d] frame %d reference %d", step, v, sf.C[v], ref[v])
			}
		}
		if sf.Tau != refTau {
			t.Fatalf("%s: tau frame %d reference %d", step, sf.Tau, refTau)
		}
	}
	var sawSparse, sawDense bool
	for round := 0; round < 10; round++ {
		// Bump enough distinct vertices that some rounds cross the cutover.
		bumps := 1 + r.Intn(2*DenseCutover(n))
		for i := 0; i < bumps; i++ {
			v := uint32(r.Intn(n))
			sf.Bump(v)
			ref[v]++
			sf.Tau++
			refTau++
		}
		for i := 0; i < 32; i++ {
			v := uint32(r.Intn(n))
			oth.Bump(v)
			refOth[v]++
		}
		oth.Tau++
		sf.Add(oth)
		for v, c := range refOth {
			ref[v] += c
		}
		refTau += oth.Tau
		check("after add")
		if sf.Dense() {
			sawDense = true
		} else {
			sawSparse = true
		}
		if round%3 == 2 {
			sf.Reset()
			oth.Reset()
			clear(ref)
			clear(refOth)
			refTau = 0
			check("after reset")
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("schedule covered sparse=%v dense=%v, want both", sawSparse, sawDense)
	}
}

func TestStateFrameCutover(t *testing.T) {
	const n = 1024
	sf := NewStateFrame(n)
	cut := DenseCutover(n)
	for v := 0; v < cut; v++ {
		sf.Bump(uint32(v))
	}
	if sf.Dense() {
		t.Fatalf("frame went dense at exactly %d touched (cutover %d)", sf.TouchedLen(), cut)
	}
	sf.Bump(uint32(cut)) // one past the cutover
	if !sf.Dense() {
		t.Fatal("frame did not go dense past the cutover")
	}
	for v := 0; v <= cut; v++ {
		if sf.C[v] != 1 {
			t.Fatalf("count lost across cutover at %d", v)
		}
	}
	sf.Reset()
	if sf.Dense() {
		t.Fatal("Reset did not restore sparse tracking")
	}
	for v := 0; v <= cut; v++ {
		if sf.C[v] != 0 {
			t.Fatalf("Reset left residue at %d", v)
		}
	}
}

func TestSingleThreadTransitions(t *testing.T) {
	f := New(1, 2)
	if f.epochs[0].v.Load() != 0 {
		t.Fatal("initial epoch not 0")
	}
	f.Frame(0).Tau = 3
	e := f.forceTransition()
	if e != 1 || !f.transitionDone(1) {
		t.Fatal("single-thread transition must complete immediately")
	}
	f.Frame(0).Tau = 9 // epoch-1 frame
	dst := NewStateFrame(2)
	f.AggregateEpoch(0, dst)
	if dst.Tau != 3 {
		t.Fatalf("aggregated Tau = %d, want 3", dst.Tau)
	}
	if f.frames[0][0].Tau != 0 {
		t.Fatal("consumed frame not reset")
	}
	if f.Frame(0).Tau != 9 {
		t.Fatal("current frame clobbered by aggregation")
	}
}

func TestCheckTransitionNoopBeforeForce(t *testing.T) {
	f := New(2, 1)
	if f.checkTransition(1) {
		t.Fatal("CheckTransition fired before ForceTransition")
	}
	f.forceTransition()
	if !f.checkTransition(1) {
		t.Fatal("CheckTransition did not fire after ForceTransition")
	}
	if f.checkTransition(1) {
		t.Fatal("CheckTransition advanced twice for one transition")
	}
	if !f.transitionDone(1) {
		t.Fatal("transition not done after all threads advanced")
	}
}

// TestNoLostSamplesUnderConcurrency is the core safety property: every
// sample recorded by any thread in any epoch is aggregated exactly once.
func TestNoLostSamplesUnderConcurrency(t *testing.T) {
	const T = 8
	const vecLen = 64
	const epochs = 50
	f := New(T, vecLen)
	var stop atomic.Bool
	var produced [T]int64 // total samples each thread claims to have taken

	var wg sync.WaitGroup
	for th := 1; th < T; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rng.NewRand(uint64(th))
			sf := f.Frame(th)
			for !stop.Load() {
				// take a "sample"
				sf.Tau++
				sf.Bump(uint32(r.Intn(vecLen)))
				produced[th]++
				if f.checkTransition(th) {
					sf = f.Frame(th)
				}
			}
			// Drain: advance through any pending transitions so the final
			// frames freeze.
			for f.checkTransition(th) {
			}
		}(th)
	}

	total := NewStateFrame(vecLen)
	r := rng.NewRand(0)
	for e := uint64(0); e < epochs; e++ {
		// thread 0 samples a bit into its current frame
		sf := f.Frame(0)
		for i := 0; i < 100; i++ {
			sf.Tau++
			sf.Bump(uint32(r.Intn(vecLen)))
			produced[0]++
		}
		f.forceTransition()
		nf := f.Frame(0)
		for !f.transitionDone(e + 1) {
			nf.Tau++
			nf.Bump(uint32(r.Intn(vecLen)))
			produced[0]++
		}
		f.AggregateEpoch(e, total)
	}
	stop.Store(true)
	wg.Wait()

	// Collect what is still sitting in unaggregated frames (the final epoch
	// and any partial next-epoch frames).
	for th := 0; th < T; th++ {
		total.Add(f.frames[th][0])
		total.Add(f.frames[th][1])
	}
	var want int64
	for _, p := range produced {
		want += p
	}
	if total.Tau != want {
		t.Fatalf("lost or duplicated samples: aggregated %d, produced %d", total.Tau, want)
	}
	var sumC int64
	for _, c := range total.C {
		sumC += c
	}
	if sumC != want {
		t.Fatalf("vector counts %d != tau %d", sumC, want)
	}
}

// TestEpochSkewBound verifies threads never lag more than one epoch behind
// the coordinator while transitions are being completed before new ones are
// forced (the precondition the two-frame reuse relies on).
func TestEpochSkewBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second statistical bound; skipped in -short (race CI)")
	}
	const T = 4
	f := New(T, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 1; th < T; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for !stop.Load() {
				f.checkTransition(th)
			}
		}(th)
	}
	for e := uint64(0); e < 200; e++ {
		f.forceTransition()
		for !f.transitionDone(e + 1) {
		}
		for th := 0; th < T; th++ {
			got := f.epochs[th].v.Load()
			if got != e+1 {
				t.Fatalf("thread %d at epoch %d, coordinator at %d", th, got, e+1)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestFrameParityReuse(t *testing.T) {
	f := New(1, 1)
	f0 := f.Frame(0)
	f.forceTransition()
	f1 := f.Frame(0)
	if f0 == f1 {
		t.Fatal("consecutive epochs share a frame")
	}
	f.AggregateEpoch(0, NewStateFrame(1))
	f.forceTransition()
	f2 := f.Frame(0)
	if f2 != f0 {
		t.Fatal("epoch e+2 must reuse the epoch-e frame")
	}
}

func TestNewPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, 1)
}

func TestAggregateLengthMismatchPanics(t *testing.T) {
	f := New(1, 3)
	f.forceTransition()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	f.AggregateEpoch(0, NewStateFrame(2))
}

func BenchmarkCheckTransitionNoop(b *testing.B) {
	f := New(2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.checkTransition(1)
	}
}

func BenchmarkTransitionRoundTrip(b *testing.B) {
	const T = 4
	f := New(T, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 1; th < T; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for !stop.Load() {
				f.checkTransition(th)
			}
		}(th)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := f.forceTransition()
		for !f.transitionDone(e) {
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

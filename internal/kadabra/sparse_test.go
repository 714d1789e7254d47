package kadabra

import (
	"context"
	"testing"

	"repro/internal/epoch"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The dense-reference battery: every sample an engine draws is also summed
// into a plain []int64 that knows no touched list, no cut-over and no wire
// format, and the engine's result must equal that reference bit for bit on
// every workload — the sparse representation is a pure data-structure
// change, never an algorithmic one.

// denseRef is the reference accumulator; wrap it around a workload's
// kernels with Workload.WrapSampler.
type denseRef struct {
	tau int64
	c   []int64
}

type refSampler struct {
	inner Sampler
	ref   *denseRef
}

func (r refSampler) Sample() ([]graph.Node, bool) {
	internal, ok := r.inner.Sample()
	r.ref.tau++
	for _, v := range internal {
		r.ref.c[v]++
	}
	return internal, ok
}

// runAgainstDenseRef runs w on one kernel (the sequential engine, or the
// epoch engine at one thread, where no drawn sample is left in an
// unaggregated frame) and checks the result against the reference.
func runAgainstDenseRef(t *testing.T, name string, w Workload, threads int, cfg Config) {
	t.Helper()
	ref := &denseRef{c: make([]int64, w.N())}
	res, err := Run(context.Background(), w.WrapSampler(func(s Sampler) Sampler {
		return refSampler{s, ref}
	}), threads, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Tau != ref.tau {
		t.Fatalf("%s: tau %d, kernels drew %d", name, res.Tau, ref.tau)
	}
	for v, c := range ref.c {
		if want := float64(c) / float64(ref.tau); res.Betweenness[v] != want {
			t.Fatalf("%s: betweenness[%d] = %v, dense reference %v", name, v, res.Betweenness[v], want)
		}
	}
}

// testWorkloads returns the three estimation scenarios over small fixed
// instances.
func testWorkloads(t testing.TB) map[string]Workload {
	t.Helper()
	g := gen.RMAT(gen.Graph500(8, 8, 5))
	g, _ = graph.LargestComponent(g)
	dg := stronglyConnectedDigraph(6, 120, 360)
	wg := connectedWeighted(7, 100, 200, 8)
	return map[string]Workload{
		"undirected": UndirectedWorkload(g),
		"directed":   DirectedWorkload(dg),
		"weighted":   WeightedWorkload(wg),
	}
}

func TestDenseSparseEquivalenceSequential(t *testing.T) {
	for name, w := range testWorkloads(t) {
		runAgainstDenseRef(t, name, w, 0, Config{Eps: 0.05, Delta: 0.1, Seed: 11})
	}
}

// epochFrameDense reports whether one epoch of n0 samples of w takes a fresh
// state frame past its density cut-over.
func epochFrameDense(w Workload, n0 int) bool {
	sf := epoch.NewStateFrame(w.N())
	for s := w.NewSampler(rng.NewRand(1)); sf.Tau < int64(n0); {
		SampleInto(s, sf)
	}
	return sf.Dense()
}

// TestDenseSparseEquivalenceSharedMemory runs the epoch-based driver with a
// single thread, where every drawn sample reaches the state (with more
// threads the samples in flight at the stop are dropped, so runs are only
// statistically comparable — that regime is covered by the race test below
// and the parity batteries). Both branches of the epoch frames' Add/Reset
// feed a checked result: on the ~100-vertex instances a default epoch takes
// its frame past DenseCutover on its own, and on a 2^11-vertex R-MAT graph
// at the minimum epoch length the frames stay sparse.
func TestDenseSparseEquivalenceSharedMemory(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.1, Seed: 13}
	for name, w := range testWorkloads(t) {
		if !epochFrameDense(w, cfg.EpochLength(1)) {
			t.Fatalf("%s: a default epoch leaves its frame sparse; shrink the instance", name)
		}
		runAgainstDenseRef(t, name, w, 1, cfg)
	}
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(11, 8, 5)))
	w := UndirectedWorkload(g)
	cfg.EpochBase = 16
	if epochFrameDense(w, 4*cfg.EpochLength(1)) {
		t.Fatal("four minimum-length epochs take a frame dense; enlarge the instance")
	}
	runAgainstDenseRef(t, "sparse-epochs", w, 1, cfg)
}

// TestSparseFramePingPongRace exercises the sparse frames' touched-list
// maintenance under real epoch transitions with concurrent sampling
// threads: a tiny epoch length forces rapid frame ping-pong while workers
// bump counts. Run with -race (the CI race job does) to check the frames'
// wait-free handoff; the assertions check the aggregated state stayed
// consistent.
func TestSparseFramePingPongRace(t *testing.T) {
	g := gen.RMAT(gen.Graph500(8, 8, 9))
	g, _ = graph.LargestComponent(g)
	cfg := Config{Eps: 0.08, Delta: 0.1, Seed: 17, EpochBase: 64}
	res, err := Run(context.Background(), UndirectedWorkload(g), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau <= 0 || res.Epochs <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	for v, b := range res.Betweenness {
		if b < 0 || b > 1 {
			t.Fatalf("betweenness[%d] = %v out of range", v, b)
		}
	}
}

// TestSampleSteadyStateZeroAlloc asserts the per-sample hot path performs
// zero heap allocations in steady state on every workload, in both frame
// regimes a sampler sees: accumulating into a long-lived state (which cuts
// over to dense) and the epoch ping-pong (sparse frame filled then Reset).
func TestSampleSteadyStateZeroAlloc(t *testing.T) {
	ws := testWorkloads(t)
	// A weighted cell big and tie-heavy enough (3000 vertices, weights 1..3)
	// that the Dijkstra sampler's bucket queues, which start empty, and its
	// crossing-arc scratch have real growing to do; the warm-up below scales
	// with n so they reach their working size before allocations are counted.
	ws["weighted-large"] = WeightedWorkload(connectedWeighted(9, 3000, 12000, 3))
	for name, w := range ws {
		sampler := w.NewSampler(rng.NewRand(23))
		n := w.N()

		// Regime 1: accumulated state frame.
		acc := epoch.NewStateFrame(n)
		for i := 0; i < 2000+10*n; i++ { // warm sampler buffers + pass the cutover
			SampleInto(sampler, acc)
		}
		if avg := testing.AllocsPerRun(200, func() {
			SampleInto(sampler, acc)
		}); avg != 0 {
			t.Errorf("%s: steady-state sample into accumulated frame allocates %.2f/op", name, avg)
		}

		// Regime 2: epoch frame filled and reset each "epoch".
		ef := epoch.NewStateFrame(n)
		for e := 0; e < 5; e++ { // grow the touched list to its working size
			for i := 0; i < 64; i++ {
				SampleInto(sampler, ef)
			}
			ef.Reset()
		}
		if avg := testing.AllocsPerRun(50, func() {
			for i := 0; i < 64; i++ {
				SampleInto(sampler, ef)
			}
			ef.Reset()
		}); avg != 0 {
			t.Errorf("%s: steady-state epoch fill+reset allocates %.2f/op", name, avg)
		}
	}
}

// haveToStopReference is the pre-optimization stopping check, kept verbatim
// as the semantic reference: natural vertex order, no cached logs, no
// failing-vertex memory.
func haveToStopReference(cal *Calibration, counts []int64, tau int64) bool {
	if tau <= 0 {
		return false
	}
	if float64(tau) >= cal.Omega {
		return true
	}
	ft := float64(tau)
	for v, c := range counts {
		bt := float64(c) / ft
		if FBound(bt, cal.DeltaL[v], cal.Omega, tau) >= cal.Eps {
			return false
		}
		if GBound(bt, cal.DeltaU[v], cal.Omega, tau) >= cal.Eps {
			return false
		}
	}
	return true
}

// TestHaveToStopMatchesReference drives the amortized check and the
// reference across a whole sampling trajectory (growing tau, evolving
// counts, crossing from failing to stopping) and demands identical
// decisions at every state. The amortized structure (ordering, early exit,
// cached logs, last-fail memory) must never change the boolean outcome —
// f/g are non-monotone, so this is the soundness property.
func TestHaveToStopMatchesReference(t *testing.T) {
	const n = 400
	r := rng.NewRand(29)
	// A synthetic calibration state with a skewed count distribution.
	counts := make([]int64, n)
	var tau0 int64 = 2000
	for i := int64(0); i < tau0; i++ {
		// Zipf-ish: low IDs get most mass, plus a heavy hub at a high ID so
		// the descending order differs sharply from the natural order.
		v := r.Intn(n)
		if r.Intn(3) > 0 {
			v = r.Intn(1 + n/10)
		}
		if r.Intn(4) == 0 {
			v = n - 3
		}
		counts[v]++
	}
	omega := Omega(12, 0.05, 0.1)
	cal := Calibrate(counts, tau0, omega, 0.05, 0.1)

	state := append([]int64(nil), counts...)
	tau := tau0
	agree := 0
	for step := 0; step < 200; step++ {
		got := cal.HaveToStop(state, tau)
		want := haveToStopReference(cal, state, tau)
		if got != want {
			t.Fatalf("step %d (tau=%d): amortized %v, reference %v", step, tau, got, want)
		}
		agree++
		// Advance the state like an epoch would.
		add := 50 + r.Intn(100)
		for i := 0; i < add; i++ {
			v := r.Intn(n)
			if r.Intn(3) > 0 {
				v = r.Intn(1 + n/10)
			}
			state[v]++
		}
		tau += int64(add)
	}
	if agree == 0 {
		t.Fatal("no states compared")
	}
	// The trajectory must actually reach the stopping state so the
	// full-sweep-true path is exercised.
	if !cal.HaveToStop(state, int64(cal.Omega)+1) {
		t.Fatal("omega fallback did not stop")
	}
}

// TestCalibrateDerivedState checks the cached logs and the sweep order
// Calibrate precomputes for the amortized check.
func TestCalibrateDerivedState(t *testing.T) {
	counts := []int64{5, 50, 0, 20, 50}
	cal := Calibrate(counts, 125, 10000, 0.05, 0.1)
	if len(cal.logDL) != len(counts) || len(cal.logDU) != len(counts) {
		t.Fatal("cached logs missing")
	}
	for v := range counts {
		if cal.logDL[v] <= 0 || cal.logDU[v] <= 0 {
			t.Fatalf("non-positive cached log at %d", v)
		}
	}
	// Descending calibration counts, ties by ascending ID: 50@1, 50@4,
	// 20@3, 5@0, 0@2.
	want := []uint32{1, 4, 3, 0, 2}
	for i, v := range cal.order {
		if v != want[i] {
			t.Fatalf("order %v, want %v", cal.order, want)
		}
	}
}

// BenchmarkHaveToStop measures the per-epoch stopping check on a
// 100k-vertex state in the steady (failing) regime — the call made once
// per epoch for the whole run — against the pre-optimization reference.
func BenchmarkHaveToStop(b *testing.B) {
	const n = 100_000
	r := rng.NewRand(31)
	counts := make([]int64, n)
	var tau0 int64
	for i := 0; i < 20_000; i++ {
		// Heavy mass on a high-ID hub so the natural-order reference pays
		// a long scan, as it does in expectation on real graphs.
		v := r.Intn(n)
		if r.Intn(2) == 0 {
			v = n - 7
		}
		counts[v]++
		tau0++
	}
	omega := Omega(20, 0.01, 0.1)
	cal := Calibrate(counts, tau0, omega, 0.01, 0.1)
	// A failing state below omega: the hub's f-bound still exceeds eps
	// while the low-count mass already passes, which is the steady regime
	// of a long run (one bottleneck vertex failing for many epochs).
	tau := tau0 + 10_000
	if float64(tau) >= omega {
		b.Fatalf("bench state crossed omega: tau=%d omega=%f", tau, omega)
	}

	b.Run("amortized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cal.HaveToStop(counts, tau) {
				b.Fatal("state unexpectedly stopped")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if haveToStopReference(cal, counts, tau) {
				b.Fatal("state unexpectedly stopped")
			}
		}
	})
}

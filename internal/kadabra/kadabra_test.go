package kadabra_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bfs"
	"repro/internal/brandes"
	"repro/internal/diameter"
	"repro/internal/gen"
	"repro/internal/graph"
	. "repro/internal/kadabra"
	"repro/internal/rng"
)

func TestOmegaBasics(t *testing.T) {
	// omega grows as eps shrinks, and with the diameter.
	o1 := Omega(10, 0.01, 0.1)
	o2 := Omega(10, 0.001, 0.1)
	if o2 <= o1 {
		t.Fatalf("omega must grow as eps shrinks: %f vs %f", o1, o2)
	}
	if o2/o1 < 50 || o2/o1 > 200 {
		t.Fatalf("omega should scale ~1/eps^2: ratio %f", o2/o1)
	}
	if Omega(1000, 0.01, 0.1) <= Omega(4, 0.01, 0.1) {
		t.Fatal("omega must grow with the vertex diameter")
	}
	// Tiny diameters must not produce NaN/Inf (log2(VD-2) guard).
	for _, vd := range []int{1, 2, 3, 4} {
		if o := Omega(vd, 0.05, 0.1); math.IsNaN(o) || math.IsInf(o, 0) || o <= 0 {
			t.Fatalf("Omega(%d) = %f", vd, o)
		}
	}
}

func TestOmegaPanics(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{
		{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Omega(%v,%v) did not panic", c.eps, c.delta)
				}
			}()
			Omega(10, c.eps, c.delta)
		}()
	}
}

func TestBoundsShrinkWithTau(t *testing.T) {
	omega := 100000.0
	for _, bt := range []float64{0, 0.001, 0.1, 0.5} {
		prevF, prevG := math.Inf(1), math.Inf(1)
		for _, tau := range []int64{100, 1000, 10000, 100000} {
			f := FBound(bt, 0.01, omega, tau)
			g := GBound(bt, 0.01, omega, tau)
			if f < 0 || g < 0 {
				t.Fatalf("negative bound: f=%f g=%f", f, g)
			}
			if f > prevF+1e-12 || g > prevG+1e-12 {
				t.Fatalf("bounds must shrink with tau at bt=%f: f %f->%f g %f->%f",
					bt, prevF, f, prevG, g)
			}
			prevF, prevG = f, g
		}
	}
}

func TestBoundsClamped(t *testing.T) {
	// f is clamped to btilde, g to 1-btilde.
	if f := FBound(0.001, 0.01, 1e6, 10); f > 0.001 {
		t.Fatalf("f=%f exceeds btilde", f)
	}
	if g := GBound(0.999, 0.01, 1e6, 10); g > 0.001+1e-12 {
		t.Fatalf("g=%f exceeds 1-btilde", g)
	}
	if f := FBound(0, 0.01, 1e6, 100); f != 0 {
		t.Fatalf("f(0) = %f, want 0", f)
	}
}

func TestBoundsLooserForSmallerDelta(t *testing.T) {
	// Smaller per-vertex delta (stronger guarantee) must give larger bounds.
	f1 := FBound(0.3, 0.1, 1e5, 5000)
	f2 := FBound(0.3, 0.0001, 1e5, 5000)
	if f2 <= f1 {
		t.Fatalf("f must grow as delta shrinks: %f vs %f", f1, f2)
	}
	g1 := GBound(0.3, 0.1, 1e5, 5000)
	g2 := GBound(0.3, 0.0001, 1e5, 5000)
	if g2 <= g1 {
		t.Fatalf("g must grow as delta shrinks: %f vs %f", g1, g2)
	}
}

func TestCalibrateBudget(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64((seed >> (uint(i) % 48)) % 50)
		}
		cal := Calibrate(counts, 100, 10000, 0.01, 0.1)
		return cal.TotalBudget() <= 0.1/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibratePrioritizesHighBetweenness(t *testing.T) {
	counts := []int64{90, 10, 0, 0}
	cal := Calibrate(counts, 100, 10000, 0.01, 0.1)
	if cal.DeltaL[0] <= cal.DeltaL[1] || cal.DeltaL[1] <= cal.DeltaL[2] {
		t.Fatalf("budgets not ordered by betweenness: %v", cal.DeltaL)
	}
	if cal.DeltaL[2] != cal.DeltaL[3] {
		t.Fatalf("equal-count vertices got different budgets: %v", cal.DeltaL)
	}
	for _, d := range cal.DeltaL {
		if d <= 0 {
			t.Fatal("zero budget assigned; uniform floor missing")
		}
	}
}

func TestHaveToStop(t *testing.T) {
	counts := []int64{5, 3, 0}
	cal := Calibrate(counts, 10, 1000, 0.05, 0.1)
	if cal.HaveToStop(counts, 0) {
		t.Fatal("must not stop with tau=0")
	}
	if cal.HaveToStop(counts, 10) {
		t.Fatal("must not stop after 10 samples at eps=0.05")
	}
	if !cal.HaveToStop(counts, 1001) {
		t.Fatal("must stop once tau >= omega")
	}
}

func TestEpochLengthShrinksWithWorkers(t *testing.T) {
	cfg := Config{}
	prev := math.MaxInt64
	for _, w := range []int{1, 4, 16, 64, 384} {
		n0 := cfg.EpochLength(w)
		if n0 > prev {
			t.Fatalf("epoch length grew with workers: %d -> %d", prev, n0)
		}
		if n0 < 16 {
			t.Fatalf("epoch length below floor: %d", n0)
		}
		prev = n0
	}
}

// guaranteeCheck validates the (eps, delta) guarantee against Brandes.
func guaranteeCheck(t *testing.T, g *graph.Graph, res *Result, eps float64) {
	t.Helper()
	exact := brandes.Parallel(g, 1)
	worst := 0.0
	for v := range exact {
		if d := math.Abs(exact[v] - res.Betweenness[v]); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("max error %f exceeds eps %f (tau=%d omega=%f)", worst, eps, res.Tau, res.Omega)
	}
}

func testGraph() *graph.Graph {
	g := gen.RMAT(gen.Graph500(8, 8, 17))
	g, _ = graph.LargestComponent(g)
	return g
}

// testLattice is a small road lattice, high-diameter enough (double sweep
// above 2·⌈log2 n⌉) that UndirectedWorkload samples it with the goal kernel.
func testLattice() *graph.Graph {
	g, _ := graph.LargestComponent(gen.Road(gen.RoadParams{Rows: 16, Cols: 16, DeleteProb: 0.1, Seed: 3}))
	return g
}

func TestSequentialGuarantee(t *testing.T) {
	g := testGraph()
	eps := 0.03
	res, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: eps, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau <= 0 || res.Tau > int64(res.Omega)+1 {
		t.Fatalf("implausible tau %d (omega %f)", res.Tau, res.Omega)
	}
	guaranteeCheck(t, g, res, eps)
	// Scores must be a probability-like vector.
	for _, b := range res.Betweenness {
		if b < 0 || b > 1 {
			t.Fatalf("betweenness out of range: %f", b)
		}
	}
}

func TestSequentialDeterminism(t *testing.T) {
	g := testGraph()
	cfg := Config{Eps: 0.05, Delta: 0.1, Seed: 7}
	a, err := Run(context.Background(), UndirectedWorkload(g), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), UndirectedWorkload(g), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau {
		t.Fatalf("same seed, different tau: %d vs %d", a.Tau, b.Tau)
	}
	for v := range a.Betweenness {
		if a.Betweenness[v] != b.Betweenness[v] {
			t.Fatal("same seed, different scores")
		}
	}
}

func TestSequentialStopsEarlierWithLooserEps(t *testing.T) {
	g := testGraph()
	tight, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: 0.02, Delta: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: 0.1, Delta: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Tau >= tight.Tau {
		t.Fatalf("looser eps took more samples: %d vs %d", loose.Tau, tight.Tau)
	}
}

func TestSequentialRejectsTinyGraph(t *testing.T) {
	if _, err := Run(context.Background(), UndirectedWorkload(graph.NewBuilder(1).Build()), 1, Config{}); err == nil {
		t.Fatal("singleton graph accepted")
	}
}

func TestSharedMemoryGuarantee(t *testing.T) {
	g := testGraph()
	eps := 0.03
	res, err := Run(context.Background(), UndirectedWorkload(g), 4, Config{Eps: eps, Delta: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	guaranteeCheck(t, g, res, eps)
	if res.Epochs < 1 {
		t.Fatalf("no epochs recorded: %d", res.Epochs)
	}
	if res.Tau <= 0 {
		t.Fatalf("tau = %d", res.Tau)
	}
}

func TestSharedMemorySingleThread(t *testing.T) {
	g := testGraph()
	res, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: 0.05, Delta: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	guaranteeCheck(t, g, res, 0.05)
}

func TestResultTopK(t *testing.T) {
	g := testGraph()
	res, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: 0.03, Delta: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	top := brandes.TopK(res.Betweenness, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if res.Betweenness[top[i-1]] < res.Betweenness[top[i]] {
			t.Fatal("TopK not descending")
		}
	}
	// The approximate top-1 should be the exact top-1 for eps well below the
	// top score gap on this graph.
	exactTop := brandes.TopK(brandes.Parallel(g, 1), 3)
	found := false
	for _, v := range top[:3] {
		if v == exactTop[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact top vertex %d missing from approximate top-3 %v", exactTop[0], top[:3])
	}
}

func TestVertexDiameterOverrideSkipsPhase(t *testing.T) {
	g := testGraph()
	res, err := Run(context.Background(), UndirectedWorkload(g), 1, Config{Eps: 0.05, Delta: 0.1, Seed: 1, VertexDiameter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.VertexDiameter != 12 {
		t.Fatalf("override ignored: %d", res.VertexDiameter)
	}
	if res.Timings.Diameter != 0 {
		t.Fatal("diameter time charged despite override")
	}
}

// TestResolveDiameterOnce races the first resolution of one workload's bound
// across copies of the value (a WrapSampler copy among them, run under
// -race): every caller gets the exact bound, at most one pays for it, and
// later calls and an override do not run the phase.
func TestResolveDiameterOnce(t *testing.T) {
	g := testGraph()
	w := UndirectedWorkload(g)
	copies := []Workload{w, w, w, w.WrapSampler(func(s Sampler) Sampler { return s })}
	vds := make([]int, len(copies))
	took := make([]time.Duration, len(copies))
	var wg sync.WaitGroup
	for i, c := range copies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vds[i], took[i] = c.ResolveDiameter(Config{Seed: uint64(i)})
		}()
	}
	wg.Wait()
	want := diameter.VertexDiameter(g)
	paid := 0
	for i := range copies {
		if vds[i] != want {
			t.Fatalf("copy %d resolved %d, want %d", i, vds[i], want)
		}
		if took[i] != 0 {
			paid++
		}
	}
	if paid > 1 {
		t.Errorf("%d callers ran the diameter phase, want at most one", paid)
	}
	if vd, d := w.ResolveDiameter(Config{}); vd != want || d != 0 {
		t.Errorf("later call: (%d, %v), want (%d, 0)", vd, d, want)
	}
	if vd, d := w.ResolveDiameter(Config{VertexDiameter: 7}); vd != 7 || d != 0 {
		t.Errorf("override: (%d, %v), want (7, 0)", vd, d)
	}
}

// TestResolveKernelOnce races the first resolution of an unweighted
// workload's kernel data across copies of the value (a WrapSampler copy
// among them, run under -race): the double sweep and the landmarks, or the
// hub matrix, are built once, and every sampler is the goal kernel on the
// lattice and the bidirectional BFS on R-MAT and on a digraph.
func TestResolveKernelOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		w    Workload
		goal bool
	}{
		{"lattice", UndirectedWorkload(testLattice()), true},
		{"rmat", UndirectedWorkload(testGraph()), false},
		{"digraph", DirectedWorkload(stronglyConnectedDigraph(5, 200, 600)), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.w
			calls := CountKernelResolutions(w)
			copies := []Workload{w, w, w, w.WrapSampler(func(s Sampler) Sampler { return s })}
			samplers := make([]Sampler, len(copies))
			var wg sync.WaitGroup
			for i, cp := range copies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					samplers[i] = cp.NewSampler(rng.NewRand(uint64(i)))
				}()
			}
			wg.Wait()
			w.NewSampler(rng.NewRand(9))
			if n := calls.Load(); n != 1 {
				t.Fatalf("kernel resolved %d times, want once", n)
			}
			for i, s := range samplers {
				_, goal := s.(*bfs.GoalSampler)
				_, bidir := s.(*bfs.Sampler)
				if goal != c.goal || bidir == c.goal {
					t.Fatalf("copy %d built a %T, want the goal kernel: %v", i, s, c.goal)
				}
			}
		})
	}
}

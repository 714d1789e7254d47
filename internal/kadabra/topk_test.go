package kadabra

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/brandes"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTopKHaveToStopBasics(t *testing.T) {
	counts := []int64{100, 50, 2, 1}
	cal := Calibrate(counts, 153, 1e6, 0.01, 0.1)
	lower := make([]float64, 4)
	upper := make([]float64, 4)
	// Far too few samples: no stop.
	if stop, _ := cal.TopKHaveToStop(counts, 153, 1, lower, upper); stop {
		t.Fatal("stopped with 153 samples")
	}
	// Bounds must bracket the empirical scores.
	for v, c := range counts {
		bt := float64(c) / 153
		if lower[v] > bt || upper[v] < bt {
			t.Fatalf("bounds do not bracket b~: [%f, %f] vs %f", lower[v], upper[v], bt)
		}
	}
	// Invalid k: never stop.
	if stop, _ := cal.TopKHaveToStop(counts, 153, 0, lower, upper); stop {
		t.Fatal("k=0 stopped")
	}
	if stop, _ := cal.TopKHaveToStop(counts, 153, 4, lower, upper); stop {
		t.Fatal("k=n stopped")
	}
	// tau >= omega: stop (fallback).
	calSmall := Calibrate(counts, 153, 200, 0.01, 0.1)
	if stop, sep := calSmall.TopKHaveToStop(counts, 201, 1, lower, upper); !stop || sep {
		t.Fatalf("omega fallback: stop=%v sep=%v", stop, sep)
	}
}

func TestTopKSeparationWithExtremeScores(t *testing.T) {
	// A vertex holding almost all the probability mass separates quickly.
	// (omega must be of realistic magnitude: the f/g bounds scale with
	// omega/tau, so a vacuously large omega keeps them loose.)
	counts := []int64{9000, 10, 5, 2}
	tau := int64(10000)
	cal := Calibrate(counts, tau, 2e4, 0.001, 0.1)
	lower := make([]float64, 4)
	upper := make([]float64, 4)
	stop, sep := cal.TopKHaveToStop(counts, tau, 1, lower, upper)
	if !stop || !sep {
		t.Fatalf("clear leader not separated: stop=%v sep=%v lower=%v upper=%v", stop, sep, lower, upper)
	}
}

func TestTopKStarGraph(t *testing.T) {
	// Star graph: the center is the unique top-1 vertex by a huge margin;
	// the top-k mode must find and certify it with very few samples.
	g := starGraph(101)
	res, err := Run(context.Background(), UndirectedWorkload(g), 0, Config{Eps: 0.01, Delta: 0.1, Seed: 1, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top := brandes.TopK(res.Betweenness, 1); top[0] != 0 {
		t.Fatalf("top-1 is %d, want 0 (center)", top[0])
	}
	if !res.Separated {
		t.Fatal("star center not separated")
	}
	// The separation stop must come far before the uniform-eps stop.
	uniform, err := Run(context.Background(), UndirectedWorkload(g), 0, Config{Eps: 0.01, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau >= uniform.Tau {
		t.Fatalf("top-k mode (%d samples) not cheaper than uniform mode (%d)", res.Tau, uniform.Tau)
	}
}

func TestTopKMatchesBrandes(t *testing.T) {
	g := gen.RMAT(gen.Graph500(8, 8, 31))
	g, _ = graph.LargestComponent(g)
	k := 5
	res, err := Run(context.Background(), UndirectedWorkload(g), 0, Config{Eps: 0.01, Delta: 0.1, Seed: 2, TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	exact := brandes.TopK(brandes.Exact(g), k)
	// With separation, the exact top-1 must be in our certified top set
	// (ties within eps may permute lower ranks).
	found := false
	top := brandes.TopK(res.Betweenness, k)
	for _, v := range top {
		if v == exact[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact top vertex %d missing from certified top-%d %v", exact[0], k, top)
	}
	// Confidence bounds must bracket the exact scores (holds w.p. 0.9; the
	// run is deterministic via the seed, so this is a stable check).
	exactScores := brandes.Exact(g)
	for v := range exactScores {
		if exactScores[v] < res.Lower[v]-1e-9 || exactScores[v] > res.Upper[v]+1e-9 {
			t.Fatalf("vertex %d: exact %f outside [%f, %f]",
				v, exactScores[v], res.Lower[v], res.Upper[v])
		}
	}
}

func TestTopKValidation(t *testing.T) {
	g := gen.RMAT(gen.Graph500(6, 8, 1))
	g, _ = graph.LargestComponent(g)
	w := UndirectedWorkload(g)
	// k == 0 selects the uniform rule, so the lower out-of-range probe is -1.
	if _, err := Run(context.Background(), w, 0, Config{TopK: -1}); err == nil {
		t.Fatal("k=-1 accepted")
	}
	if _, err := Run(context.Background(), w, 0, Config{TopK: g.NumNodes()}); err == nil {
		t.Fatal("k=n accepted")
	}
	if _, err := Run(context.Background(), UndirectedWorkload(graph.NewBuilder(1).Build()), 0, Config{TopK: 1}); err == nil {
		t.Fatal("tiny graph accepted")
	}
	st, err := NewEstimatorState(w, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTopK(g.NumNodes()); err == nil {
		t.Fatal("SetTopK accepted k=n")
	}
}

// starGraph is the n-vertex star centred on vertex 0.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.Node(i))
	}
	return b.Build()
}

// floatsHash is FNV-1a over the IEEE bit patterns: equal hashes mean
// bit-identical vectors.
func floatsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTopKGoldenParity pins the top-k rule of the EstimatorState machine to
// the stand-alone driver loop it replaced: every expected value below was
// recorded from that loop at commit dac0318, just before its deletion
// (Eps 0.01, Delta 0.1). The three cases end three different ways — early
// separation on the star, mid-run separation on R-MAT k=1, and the omega cap
// on R-MAT k=5 — and the hashes make Betweenness/Lower/Upper bit-identical.
func TestTopKGoldenParity(t *testing.T) {
	rmat, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(8, 8, 31)))
	graphs := map[string]*graph.Graph{"star": starGraph(101), "rmat": rmat}
	for _, c := range []struct {
		graph                  string
		k                      int
		seed                   uint64
		tau                    int64
		epochs                 int
		top                    []graph.Node
		separated              bool
		btHash, loHash, upHash uint64
		achievedEpsBits        uint64
	}{
		{"star", 1, 1, 1200, 2, []graph.Node{0}, true, 0x7e125e5c1e253fcd, 0x301004c67e00c96c, 0xc783d1a103392ff8, 0x3fd3369164ae638e},
		{"star", 1, 2, 1200, 2, []graph.Node{0}, true, 0xb9ee4691abc56777, 0xe4b72164f21e4f39, 0xc783d1a103392ff8, 0x3fd3369164ae638e},
		{"star", 1, 3, 1200, 2, []graph.Node{0}, true, 0x935d779fd7b23804, 0xd8f8233c7aa11742, 0xc783d1a103392ff8, 0x3fd3369164ae638e},
		{"rmat", 1, 1, 4300, 5, []graph.Node{0}, true, 0xd53c0d37b82dc919, 0x99adee5513f9268b, 0x5db6a83a57a0ebee, 0x3fb35420520452d0},
		{"rmat", 1, 2, 4300, 5, []graph.Node{0}, true, 0x293ed2dd58f53e3, 0xc6d24482157c6d9a, 0x40470f9859537f29, 0x3fb29ab731e6d2a3},
		{"rmat", 1, 3, 4300, 5, []graph.Node{0}, true, 0xcf9e64ebc8046aa0, 0x8fedba650c3a7af5, 0x66ca553663cff088, 0x3fb36c564e4fcc38},
		{"rmat", 5, 1, 29979, 31, []graph.Node{0, 32, 2, 16, 59}, false, 0x8fbb534349a2d7a3, 0x491a4e85c47c55c7, 0xab0518b0a0761897, 0x3f8073d273043c5c},
		{"rmat", 5, 2, 29979, 31, []graph.Node{0, 32, 16, 2, 59}, false, 0x21f0793f07f7f773, 0x184199ef44ebdd1b, 0xf55af5c1a60417d1, 0x3f806f07137bb605},
		{"rmat", 5, 3, 29979, 31, []graph.Node{0, 2, 16, 32, 59}, false, 0x655b610996bb27dd, 0xaa61f842de12db84, 0x1a6e5cf004f4d38, 0x3f8139f364492308},
	} {
		t.Run(fmt.Sprintf("%s/k%d/seed%d", c.graph, c.k, c.seed), func(t *testing.T) {
			res, err := Run(context.Background(), UndirectedWorkload(graphs[c.graph]), 0,
				Config{Eps: 0.01, Delta: 0.1, Seed: c.seed, TopK: c.k})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tau != c.tau || res.Epochs != c.epochs || !res.Converged || res.Separated != c.separated {
				t.Fatalf("tau %d/%d epochs %d/%d converged %v separated %v/%v",
					res.Tau, c.tau, res.Epochs, c.epochs, res.Converged, res.Separated, c.separated)
			}
			if top := brandes.TopK(res.Betweenness, c.k); !reflect.DeepEqual(top, c.top) {
				t.Fatalf("top-%d = %v, want %v", c.k, top, c.top)
			}
			if got := floatsHash(res.Betweenness); got != c.btHash {
				t.Errorf("Betweenness not bit-identical: hash %#x, want %#x", got, c.btHash)
			}
			if got := floatsHash(res.Lower); got != c.loHash {
				t.Errorf("Lower not bit-identical: hash %#x, want %#x", got, c.loHash)
			}
			if got := floatsHash(res.Upper); got != c.upHash {
				t.Errorf("Upper not bit-identical: hash %#x, want %#x", got, c.upHash)
			}
			if got := math.Float64bits(res.AchievedEps); got != c.achievedEpsBits {
				t.Errorf("AchievedEps bits %#x, want %#x", got, c.achievedEpsBits)
			}
		})
	}
}

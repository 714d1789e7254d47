package bfs

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// roadLCC is a road lattice reduced to its largest component.
func roadLCC(rows, cols int, diag float64, seed uint64) *graph.Graph {
	g, _ := graph.LargestComponent(gen.Road(gen.RoadParams{
		Rows: rows, Cols: cols, DeleteProb: 0.1, DiagonalProb: diag, Seed: seed}))
	return g
}

// cutLattice is the rows x cols lattice without the edges between columns
// cut-1 and cut: two components side by side when 0 < cut < cols.
func cutLattice(rows, cols, cut int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := graph.Node(r*cols + c)
			if c+1 < cols && c+1 != cut {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+graph.Node(cols))
			}
		}
	}
	return b.Build()
}

// TestGoalSigmaParity: after a search, the goal kernel's distance to t and
// its path count at t and at every vertex of the s-t shortest-path DAG
// equal a level-synchronous reference, on lattices with and without
// diagonals, and every path it returns is a shortest one.
func TestGoalSigmaParity(t *testing.T) {
	for _, diag := range []float64{0, 0.3} {
		g := roadLCC(30, 30, diag, 4)
		t.Run(fmt.Sprintf("diag%g", diag), func(t *testing.T) {
			n := g.NumNodes()
			sp := NewGoalSampler(g, NewLandmarks(g), rng.NewRand(1))
			r := rng.NewRand(2)
			for range 150 {
				s, tt := samplePair(r, n)
				distS, sigS := sigmaRef(g, s)
				distT, _ := sigmaRef(g, tt)
				internal, ok := sp.SamplePath(s, tt)
				if !ok {
					t.Fatalf("(%d,%d): connected pair reported unreachable", s, tt)
				}
				validatePath(t, g, s, tt, internal)
				D := distS[tt]
				if got := sp.label[tt]; got.g != D || got.sigma != sigS[tt] {
					t.Fatalf("(%d,%d): t label g=%d sigma=%g, want %d, %g", s, tt, got.g, got.sigma, D, sigS[tt])
				}
				for v := range n {
					if distS[v]+distT[v] != D {
						continue
					}
					if l := sp.label[v]; l.stamp != sp.cur || l.g != distS[v] || l.sigma != sigS[v] {
						t.Fatalf("(%d,%d): DAG vertex %d label %+v, want g=%d sigma=%g", s, tt, v, l, distS[v], sigS[v])
					}
				}
			}
		})
	}
}

// TestGoalSamplerUniformity: each vertex is an internal path vertex with
// probability sigma_st(v)/sigma_st, on small lattices with and without
// diagonals, for far and near pairs.
func TestGoalSamplerUniformity(t *testing.T) {
	for trial, diag := range []float64{0, 0.3, 0.5} {
		g := roadLCC(7, 7, diag, uint64(trial)+1)
		n := g.NumNodes()
		lm := NewLandmarks(g)
		checkUniformity(t, g, g, NewGoalSampler(g, lm, rng.NewRand(uint64(trial)+5)), 0, graph.Node(n-1))
		r := rng.NewRand(uint64(trial))
		s, tt := samplePair(r, n)
		checkUniformity(t, g, g, NewGoalSampler(g, lm, rng.NewRand(uint64(trial)+9)), s, tt)
	}
}

// TestGoalSamplerAdjacentPair: at distance 1 the path has no internal
// vertex and the walk draws exactly one Float64.
func TestGoalSamplerAdjacentPair(t *testing.T) {
	g := cutLattice(4, 4, 0)
	r, twin := rng.NewRand(3), rng.NewRand(3)
	sp := NewGoalSampler(g, NewLandmarks(g), r)
	internal, ok := sp.SamplePath(5, 6)
	if !ok || len(internal) != 0 {
		t.Fatalf("adjacent pair: ok=%v internal=%v", ok, internal)
	}
	twin.Float64()
	if r.State() != twin.State() {
		t.Fatal("adjacent pair did not draw exactly one Float64")
	}
	if _, ok := sp.SamplePath(5, 5); ok {
		t.Fatal("s == t must not produce a path")
	}
}

// TestGoalUnreachablePair: on a lattice cut in two, a pair across the cut
// returns ok=false, whether landmarks sit on both sides or only on one, and
// the next sample on the same sampler is a valid shortest path.
func TestGoalUnreachablePair(t *testing.T) {
	g := cutLattice(6, 10, 5)
	for name, lm := range map[string]*Landmarks{
		"both sides": NewLandmarks(g),
		"left only":  NewLandmarks(g, 0, 4, 50, 24),
	} {
		t.Run(name, func(t *testing.T) {
			sp := NewGoalSampler(g, lm, rng.NewRand(1))
			for _, pair := range [][2]graph.Node{{0, 9}, {9, 0}, {32, 17}, {59, 50}} {
				if _, ok := sp.SamplePath(pair[0], pair[1]); ok {
					t.Fatalf("%v: path across the cut", pair)
				}
			}
			for _, pair := range [][2]graph.Node{{0, 54}, {5, 59}, {9, 55}} {
				internal, ok := sp.SamplePath(pair[0], pair[1])
				if !ok {
					t.Fatalf("%v: connected pair reported unreachable", pair)
				}
				validatePath(t, g, pair[0], pair[1], internal)
			}
		})
	}
}

// TestGoalStampWrapClearsLabels starts a sampler just below the stamp
// counter's wrap, with labels left over from early searches whose stamps the
// restarted counter will reach again: across the wrap it must draw a fresh
// sampler's samples exactly, which it can only do if the wrap cleared them.
func TestGoalStampWrapClearsLabels(t *testing.T) {
	g := roadLCC(20, 20, 0.1, 6)
	lm := NewLandmarks(g)
	got := NewGoalSampler(g, lm, rng.NewRand(7))
	for i := range got.label {
		got.label[i] = goalLabel{stamp: 1 + uint32(i%5), g: 1, sigma: 1}
	}
	got.cur = math.MaxUint32 - 3
	ref := NewGoalSampler(g, lm, rng.NewRand(7))
	for i := range 10 {
		want, wantOK := ref.Sample()
		path, ok := got.Sample()
		if ok != wantOK || !slices.Equal(path, want) {
			t.Fatalf("sample %d (stamp %d): got %v ok=%v, fresh sampler %v ok=%v", i, got.cur, path, ok, want, wantOK)
		}
		if got.cur < 10 {
			for v, l := range got.label {
				if l.stamp > got.cur {
					t.Fatalf("after the wrap: vertex %d keeps stamp %d > %d", v, l.stamp, got.cur)
				}
			}
		}
	}
	if got.cur >= 10 {
		t.Fatalf("stamp %d: the run never wrapped", got.cur)
	}
}

// TestLandmarksFarthestPoints: with no seeds the first landmark is vertex
// 0 and the next ones are farthest-point picks; on a path those are the
// far end and then the middle.
func TestLandmarksFarthestPoints(t *testing.T) {
	g := pathGraph(9)
	lm := NewLandmarks(g)
	for v := range 9 {
		want := [NumLandmarks]uint32{uint32(v), uint32(8 - v), uint32(max(v-4, 4-v)), uint32(max(v-2, 2-v))}
		if got := *lm.row(graph.Node(v)); got != want {
			t.Fatalf("vertex %d: landmark distances %v, want %v", v, got, want)
		}
	}
}

// TestGoalSampleDigest pins the goal kernel's sample stream on road-shm's
// lattice (120², generator seed 1): the sampleDigest of 10^5 samples from
// NewGoalSampler(..., rng.NewRand(5)).
func TestGoalSampleDigest(t *testing.T) {
	const want = 0x1680e7f5674a643e
	g := roadLCC(120, 120, 0, 1)
	if got := sampleDigest(NewGoalSampler(g, NewLandmarks(g), rng.NewRand(5)), 100_000); got != want {
		t.Fatalf("digest %016x, want %016x", got, uint64(want))
	}
}

// BenchmarkGoalSampleRoad runs the goal kernel on road-shm's lattice (120²,
// generator seed 1) and on BenchmarkBidirSampleRoad's 300² lattice with
// diagonals; "bidir-road-shm" is the bidirectional kernel on the first, for
// comparison on the same graph.
func BenchmarkGoalSampleRoad(b *testing.B) {
	roadShm := roadLCC(120, 120, 0, 1)
	diag300 := roadLCC(300, 300, 0.05, 2)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		goal bool
	}{
		{"road-shm", roadShm, true},
		{"bidir-road-shm", roadShm, false},
		{"diag300", diag300, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sp interface{ Sample() ([]graph.Node, bool) } = NewSampler(c.g, NewHubs(c.g), rng.NewRand(1))
			if c.goal {
				sp = NewGoalSampler(c.g, NewLandmarks(c.g), rng.NewRand(1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Sample()
			}
		})
	}
}

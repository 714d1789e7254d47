package gen

import (
	"testing"

	"repro/internal/graph"
)

// TestStreamMatchesMaterialized pins the core streaming property: the
// callback variants emit exactly the edge sequence the materializing
// generators consume, so building from the stream reproduces the graph.
func TestStreamMatchesMaterialized(t *testing.T) {
	collect := func(n int, stream func(emit func(u, v graph.Node) error) error) *graph.Graph {
		b := graph.NewBuilder(n)
		if err := stream(func(u, v graph.Node) error { b.AddEdge(u, v); return nil }); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	same := func(name string, got, want *graph.Graph) {
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: stream graph %d/%d differs from materialized %d/%d",
				name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for v := 0; v < want.NumNodes(); v++ {
			gn, wn := got.Neighbors(graph.Node(v)), want.Neighbors(graph.Node(v))
			if len(gn) != len(wn) {
				t.Fatalf("%s: vertex %d degree %d != %d", name, v, len(gn), len(wn))
			}
			for i := range gn {
				if gn[i] != wn[i] {
					t.Fatalf("%s: vertex %d neighbor %d: %d != %d", name, v, i, gn[i], wn[i])
				}
			}
		}
	}

	rp := Graph500(8, 8, 7)
	same("rmat", collect(1<<rp.Scale, func(emit func(u, v graph.Node) error) error {
		return StreamRMAT(rp, emit)
	}), RMAT(rp))

	same("er", collect(200, func(emit func(u, v graph.Node) error) error {
		return StreamErdosRenyi(200, 1000, 3, emit)
	}), ErdosRenyi(200, 1000, 3))

	road := RoadParams{Rows: 20, Cols: 25, DeleteProb: 0.1, DiagonalProb: 0.05, Seed: 9}
	same("road", collect(road.Rows*road.Cols, func(emit func(u, v graph.Node) error) error {
		return StreamRoad(road, emit)
	}), Road(road))
}

// TestStreamStopsOnError checks emit errors abort generation.
func TestStreamStopsOnError(t *testing.T) {
	calls := 0
	err := StreamErdosRenyi(10, 100, 1, func(u, v graph.Node) error {
		calls++
		if calls == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times, want 3", calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

// rmatSplitCase is an R-MAT whose 13·2^10 raw edges are a multiple of
// neither 3 nor 7, so the last chunk of a split is short.
var rmatSplitCase = Graph500(10, 13, 3)

// TestRMATSameForEveryWorkerCount: the parallel fill gives the serial
// graph, byte for byte, at every worker count.
func TestRMATSameForEveryWorkerCount(t *testing.T) {
	p := rmatSplitCase
	want := rmat(p, 1).Digest()
	b := graph.NewBuilder(1 << p.Scale)
	if err := StreamRMAT(p, func(u, v graph.Node) error { b.AddEdge(u, v); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := b.Build().Digest(); got != want {
		t.Fatalf("one worker: digest %s, the stream builds %s", want, got)
	}
	for _, workers := range []int{2, 3, 7} {
		if got := rmat(p, workers).Digest(); got != want {
			t.Errorf("%d workers: digest %s, want %s", workers, got, want)
		}
	}
}

// rmatSequenceHash hashes the (u, v) sequence streamRMAT emits.
func rmatSequenceHash(t *testing.T, p RMATParams, workers, chunk int) (h uint64, n int) {
	t.Helper()
	err := streamRMAT(p, workers, chunk, func(u, v graph.Node) error {
		h = (h*0x100000001b3^uint64(u))*0x100000001b3 ^ uint64(v)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, n
}

// TestStreamRMATParallelOrder: the parallel stream emits the serial
// sequence edge for edge, for chunks that divide the stream and chunks
// that leave a short last one.
func TestStreamRMATParallelOrder(t *testing.T) {
	p := rmatSplitCase
	want, m := rmatSequenceHash(t, p, 1, streamChunk)
	if m != p.numEdges() {
		t.Fatalf("serial stream emitted %d edges, want %d", m, p.numEdges())
	}
	for _, workers := range []int{2, 3, 7} {
		for _, chunk := range []int{1000, 1024, m - 1} {
			if got, n := rmatSequenceHash(t, p, workers, chunk); got != want || n != m {
				t.Errorf("%d workers, chunk %d: %d edges hashing %#x, want %d hashing %#x",
					workers, chunk, n, got, m, want)
			}
		}
	}
	if got, _ := rmatSequenceHash(t, Graph500(8, 8, 7), 1, streamChunk); got == want {
		t.Fatal("different parameters gave the same sequence hash")
	}
}

// TestStreamRMATParallelStopsOnError: an emit error ends the parallel
// stream at once, and its workers with it.
func TestStreamRMATParallelStopsOnError(t *testing.T) {
	calls := 0
	err := streamRMAT(rmatSplitCase, 3, 500, func(u, v graph.Node) error {
		calls++
		if calls == 1234 {
			return errStop
		}
		return nil
	})
	if err != errStop || calls != 1234 {
		t.Fatalf("err %v after %d edges, want errStop after 1234", err, calls)
	}
}

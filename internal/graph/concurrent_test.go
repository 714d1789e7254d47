package graph

import (
	"testing"

	"repro/internal/rng"
)

// TestAddConcurrentlyMatchesAddEdge: edges added from any number of
// workers, self loops and duplicates included, build the graph AddEdge
// builds, also on top of edges the builder already holds.
func TestAddConcurrentlyMatchesAddEdge(t *testing.T) {
	const n = 300
	r := rng.NewRand(3)
	before, edges := randomEdges(r, n, 50), randomEdges(r, n, 2001)
	for i := 0; i < len(edges); i += 7 {
		edges[i][1] = edges[i][0] // a self loop in every chunk
	}
	want := FromEdges(n, append(append([][2]Node(nil), before...), edges...)).Digest()
	for _, workers := range []int{1, 2, 3, 7, 5000} {
		b := NewBuilder(n)
		for _, e := range before {
			b.AddEdge(e[0], e[1])
		}
		AddConcurrently(b, len(edges), workers, func(lo, hi int, s *EdgeSink) {
			for _, e := range edges[lo:hi] {
				s.AddEdge(e[0], e[1])
			}
		})
		if got := b.Build().Digest(); got != want {
			t.Errorf("%d workers: digest %s, want %s", workers, got, want)
		}
	}
}

// TestEdgeSinkPanics: a sink keeps AddEdge's range check, and refuses an
// edge past its chunk rather than write into a neighbour's.
func TestEdgeSinkPanics(t *testing.T) {
	for name, add := range map[string]func(s *EdgeSink, lo, hi int){
		"out of range": func(s *EdgeSink, _, _ int) { s.AddEdge(0, 5) },
		"past its chunk": func(s *EdgeSink, lo, hi int) {
			for range hi - lo + 1 {
				s.AddEdge(0, 1)
			}
		},
	} {
		panicked := make(chan bool, 4)
		AddConcurrently(NewBuilder(4), 8, 4, func(lo, hi int, s *EdgeSink) {
			defer func() { panicked <- recover() != nil }()
			add(s, lo, hi)
		})
		for range 4 {
			if !<-panicked {
				t.Errorf("%s: a sink did not panic", name)
			}
		}
	}
}

// Generic adaptive sampling: the paper closes with "we would like to apply
// our method to other adaptive sampling algorithms. We expect the necessary
// changes to be small." This example demonstrates that claim by reusing the
// epoch driver (epoch.Driver — the same one the betweenness engines run
// on), unchanged, for a different estimator: adaptive estimation of
// per-vertex REACHABILITY counts (the fraction of vertices reachable within
// h hops), stopping when a Hoeffding bound certifies the requested accuracy
// for every vertex.
//
// All this program supplies is what a sample is and when to stop: the
// driver keeps the sampling threads wait-free, forces the epoch
// transitions on thread 0 and aggregates the frozen state frames, so the
// stopping condition is evaluated on a consistent snapshot.
//
// Run with:
//
//	go run ./examples/adaptivesampling
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/epoch"
	"repro/internal/rng"
)

const (
	hops  = 3    // neighborhood radius
	eps   = 0.02 // absolute error on the reachability fraction
	delta = 0.1  // failure probability
	T     = 6    // sampling threads
)

func main() {
	g := graph.RMAT(graph.Graph500(12, 8, 77))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		log.Fatal(err)
	}
	n := g.NumNodes()
	fmt.Printf("graph: %d nodes, %d edges; estimating %d-hop reachability, eps=%.3f\n",
		n, g.NumEdges(), hops, eps)

	// One sample: pick a random target t; for every vertex v with
	// dist(v,t) <= hops, increment c[v]. Then c[v]/tau estimates the
	// fraction of vertices within h hops of v (by symmetry of undirected
	// BFS balls). A Hoeffding bound over tau i.i.d. {0,1} observations per
	// vertex gives the stopping rule
	//   sqrt(ln(2n/delta) / (2 tau)) < eps.
	sampleInto := func(b *bfs.BFS, r *rng.Rand, sf *epoch.StateFrame) {
		t := graph.Node(r.Intn(n))
		dist := b.Run(t)
		sf.Tau++
		for v, d := range dist {
			if d <= hops {
				// Bump keeps the sparse touched-vertex bookkeeping intact;
				// these wide reachability samples overflow the density
				// cutover almost immediately, so the frames settle on the
				// dense path on their own.
				sf.Bump(uint32(v))
			}
		}
	}
	haveToStop := func(tau int64) bool {
		if tau == 0 {
			return false
		}
		bound := math.Sqrt(math.Log(2*float64(n)/delta) / (2 * float64(tau)))
		return bound < eps
	}

	start := time.Now()
	master := rng.NewRand(9)
	sample := make([]func(*epoch.StateFrame), T)
	for t := range sample {
		b, r := bfs.New(g), master.Split()
		sample[t] = func(sf *epoch.StateFrame) { sampleInto(b, r, sf) }
	}
	drv := epoch.NewDriver(epoch.New(T, n), sample)
	drv.Start()

	S := epoch.NewStateFrame(n)
	const n0 = 32
	epochs := 0
	for !haveToStop(S.Tau) {
		drv.Epoch(n0, S)
		epochs++
	}
	drv.Stop()
	if S.Tau == 0 {
		log.Fatal("no samples taken")
	}

	fmt.Printf("stopped after %d samples in %d epochs (%v)\n",
		S.Tau, epochs, time.Since(start).Round(time.Millisecond))

	// Report the most "central" vertices by neighborhood size.
	best, bestV := int64(-1), graph.Node(0)
	var mean float64
	for v, c := range S.C {
		mean += float64(c)
		if c > best {
			best, bestV = c, graph.Node(v)
		}
	}
	mean /= float64(n) * float64(S.Tau)
	fmt.Printf("mean %d-hop reachability fraction: %.4f\n", hops, mean)
	fmt.Printf("best-connected vertex: %d reaches %.1f%% of the graph in %d hops (+-%.1f%%)\n",
		bestV, 100*float64(best)/float64(S.Tau), hops, 100*eps)
}

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

// oracle is the meeting round as it was before the frontier-pair probe:
// every round expands a full level, and the walk scans the meeting vertex's
// adjacency list at every step. It runs on a Sampler's state, so the
// comparison below is kernel against kernel on the same graph and seed.
type oracle struct{ sp *Sampler }

func (o oracle) sample() ([]graph.Node, bool) {
	s, t := o.sp.SamplePair()
	return o.samplePath(s, t)
}

func (o oracle) samplePath(s, t graph.Node) ([]graph.Node, bool) {
	sp := o.sp
	if s == t {
		return nil, false
	}
	sp.cur++
	if sp.cur == 0 {
		for i := range sp.stampS {
			sp.stampS[i] = 0
			sp.stampT[i] = 0
		}
		sp.cur = 1
	}
	cur := sp.cur
	sp.stampS[s], sp.distS[s], sp.sigS[s] = cur, 0, 1
	sp.stampT[t], sp.distT[t], sp.sigT[t] = cur, 0, 1
	sp.frontS = append(sp.frontS[:0], s)
	sp.frontT = append(sp.frontT[:0], t)
	if sp.fwd.Degree(s) == 0 || sp.bwd.Degree(t) == 0 {
		return nil, false
	}
	for {
		expandS := frontierCost(sp.fwd, sp.frontS) <= frontierCost(sp.bwd, sp.frontT)
		if o.expand(expandS) {
			break
		}
		if (expandS && len(sp.frontS) == 0) || (!expandS && len(sp.frontT) == 0) {
			return nil, false
		}
	}
	total := 0.0
	for _, x := range sp.meet {
		total += sp.sigS[x] * sp.sigT[x]
	}
	pick := sp.rng.Float64() * total
	x := sp.meet[len(sp.meet)-1]
	for _, cand := range sp.meet {
		w := sp.sigS[cand] * sp.sigT[cand]
		if pick < w {
			x = cand
			break
		}
		pick -= w
	}
	sp.path = sp.path[:0]
	o.walk(x, s, true)
	for i, j := 0, len(sp.path)-1; i < j; i, j = i+1, j-1 {
		sp.path[i], sp.path[j] = sp.path[j], sp.path[i]
	}
	if x != s && x != t {
		sp.path = append(sp.path, x)
	}
	o.walk(x, t, false)
	return sp.path, true
}

func (o oracle) expand(sSide bool) bool {
	sp := o.sp
	var g *graph.Graph
	var front *[]graph.Node
	var stamp, otherStamp, dist, otherDist []uint32
	var sig []float64
	if sSide {
		g, front = sp.fwd, &sp.frontS
		stamp, otherStamp = sp.stampS, sp.stampT
		dist, otherDist = sp.distS, sp.distT
		sig = sp.sigS
	} else {
		g, front = sp.bwd, &sp.frontT
		stamp, otherStamp = sp.stampT, sp.stampS
		dist, otherDist = sp.distT, sp.distS
		sig = sp.sigT
	}
	cur := sp.cur
	next := sp.nextF[:0]
	sp.meet = sp.meet[:0]
	bestMeet := Unreached
	for _, u := range *front {
		du := dist[u]
		su := sig[u]
		for _, w := range g.Neighbors(u) {
			if stamp[w] != cur {
				stamp[w] = cur
				dist[w] = du + 1
				sig[w] = su
				next = append(next, w)
				if otherStamp[w] == cur {
					d := du + 1 + otherDist[w]
					if d < bestMeet {
						bestMeet = d
						sp.meet = sp.meet[:0]
					}
					if d == bestMeet {
						sp.meet = append(sp.meet, w)
					}
				}
			} else if dist[w] == du+1 {
				sig[w] += su
			}
		}
	}
	sp.nextF = (*front)[:0]
	*front = next
	return len(sp.meet) > 0
}

func (o oracle) walk(x, target graph.Node, toS bool) {
	sp := o.sp
	var g *graph.Graph
	var stamp, dist []uint32
	var sig []float64
	if toS {
		g, stamp, dist, sig = sp.bwd, sp.stampS, sp.distS, sp.sigS
	} else {
		g, stamp, dist, sig = sp.fwd, sp.stampT, sp.distT, sp.sigT
	}
	cur := sp.cur
	v := x
	for dist[v] > 0 {
		dv := dist[v]
		pick := sp.rng.Float64() * sig[v]
		var chosen graph.Node
		found := false
		for _, u := range g.Neighbors(v) {
			if stamp[u] == cur && dist[u] == dv-1 {
				if pick < sig[u] {
					chosen = u
					found = true
					break
				}
				pick -= sig[u]
			}
		}
		if !found {
			for _, u := range g.Neighbors(v) {
				if stamp[u] == cur && dist[u] == dv-1 {
					chosen = u
					found = true
				}
			}
			if !found {
				panic("oracle: corrupt sigma counts during path walk")
			}
		}
		v = chosen
		if dist[v] > 0 {
			sp.path = append(sp.path, v)
		}
	}
	if v != target {
		panic("oracle: path walk did not reach endpoint")
	}
}

// oracleSamples is how many samples each input of the oracle tests
// compares: 10^5, a tenth of that in -short mode.
func oracleSamples() int {
	if testing.Short() {
		return 10_000
	}
	return 100_000
}

// checkOracle draws oracleSamples samples from got and from an oracle over
// the same views and seed, both starting at stamp cur, and requires the same
// pairs and the same paths, sample for sample.
func checkOracle(t *testing.T, fwd, bwd *graph.Graph, seed uint64, cur uint32) {
	t.Helper()
	got := newSampler(fwd, bwd, rng.NewRand(seed))
	ref := oracle{newSampler(fwd, bwd, rng.NewRand(seed))}
	got.cur, ref.sp.cur = cur, cur
	for i := range oracleSamples() {
		want, wantOK := ref.sample()
		path, ok := got.Sample()
		if ok != wantOK || !slices.Equal(path, want) {
			t.Fatalf("sample %d: got %v ok=%v, oracle %v ok=%v", i, path, ok, want, wantOK)
		}
	}
}

// rmatLCC is the Graph500 R-MAT instance the benchmark workloads use at this
// scale (edge factor 16, generator seed 1), reduced to its largest component.
func rmatLCC(scale int) *graph.Graph {
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(scale, 16, 1)))
	return g
}

// TestProbeMatchesOracle: the probing kernel returns the pre-probe kernel's
// exact samples on the inputs whose shapes matter — power-law graphs from
// the small-tcp2/daemon size to the social-shm size, a high-diameter
// lattice, and digraphs, one of them hub-heavy with arcs of mixed
// orientation.
func TestProbeMatchesOracle(t *testing.T) {
	for _, scale := range []int{10, 12, 16} {
		g := rmatLCC(scale)
		t.Run(fmt.Sprintf("rmat%d", scale), func(t *testing.T) {
			checkOracle(t, g, g, uint64(scale), 0)
		})
	}
	t.Run("road", func(t *testing.T) {
		g, _ := graph.LargestComponent(gen.Road(gen.RoadParams{Rows: 40, Cols: 40, DeleteProb: 0.1, Seed: 3}))
		checkOracle(t, g, g, 5, 0)
	})
	t.Run("randomDigraph", func(t *testing.T) {
		g, _ := graph.LargestSCC(randomDigraph(11, 3000, 12000))
		out, in := views(g)
		checkOracle(t, out, in, 7, 0)
	})
	t.Run("rmatDigraph", func(t *testing.T) {
		g, _ := graph.LargestSCC(mixedOrientation(rmatLCC(12), 9))
		out, in := views(g)
		checkOracle(t, out, in, 8, 0)
	})
}

// TestProbeMatchesOracleAcrossStampWrap starts both kernels just below the
// stamp counter's wrap, so the run crosses the clear-and-restart path.
func TestProbeMatchesOracleAcrossStampWrap(t *testing.T) {
	g := rmatLCC(10)
	checkOracle(t, g, g, 3, math.MaxUint32-uint32(oracleSamples()/2))
}

// mixedOrientation turns each edge of g into one arc of either direction or
// into both, at random.
func mixedOrientation(g *graph.Graph, seed uint64) *graph.Digraph {
	r := rng.NewRand(seed)
	var arcs [][2]graph.Node
	g.ForEdges(func(u, v graph.Node) {
		switch r.Intn(3) {
		case 0:
			arcs = append(arcs, [2]graph.Node{u, v})
		case 1:
			arcs = append(arcs, [2]graph.Node{v, u})
		default:
			arcs = append(arcs, [2]graph.Node{u, v}, [2]graph.Node{v, u})
		}
	})
	return graph.FromArcs(g.NumNodes(), arcs)
}

// twoHubs is s=0 and t=1 at distance 3: s's neighbours a1..a3 (2..4) and
// t's neighbours b1..b3 (5..7) are joined by five edges, and a1 and b2 each
// carry 100 pendant leaves, so expanding the meeting round would stamp 200
// vertices to find three.
func twoHubs() *graph.Graph {
	const s, t, a1, a2, a3, b1, b2, b3 = 0, 1, 2, 3, 4, 5, 6, 7
	b := graph.NewBuilder(8 + 200)
	for _, e := range [][2]graph.Node{
		{s, a1}, {s, a2}, {s, a3}, {t, b1}, {t, b2}, {t, b3},
		{a1, b1}, {a1, b2}, {a2, b2}, {a3, b3}, {a3, b1},
	} {
		b.AddEdge(e[0], e[1])
	}
	for i := graph.Node(0); i < 100; i++ {
		b.AddEdge(a1, 8+i)
		b.AddEdge(b2, 108+i)
	}
	return b.Build()
}

// TestProbeTakesTheMeetingRound drives the two-hub graph's first two rounds
// by hand, checks that the cost rule then prefers the probe, and that the
// probe finds the meeting set, in order and with the sigmas, that expanding
// the round finds; then checks the sampler's path frequencies on the pair.
func TestProbeTakesTheMeetingRound(t *testing.T) {
	g := twoHubs()
	start := func(sp *Sampler) {
		sp.cur++
		sp.stampS[0], sp.distS[0], sp.sigS[0] = sp.cur, 0, 1
		sp.stampT[1], sp.distT[1], sp.sigT[1] = sp.cur, 0, 1
		sp.frontS = append(sp.frontS[:0], 0)
		sp.frontT = append(sp.frontT[:0], 1)
		if sp.expand(true) || sp.expand(false) {
			t.Fatal("balls met before the third round")
		}
	}
	sp := NewSampler(g, rng.NewRand(1))
	ref := oracle{NewSampler(g, rng.NewRand(1))}
	start(sp)
	start(ref.sp)

	costS, costT := frontierCost(g, sp.frontS), frontierCost(g, sp.frontT)
	if pairs := uint64(len(sp.frontS) * len(sp.frontT)); pairs*probeCost >= min(costS, costT) {
		t.Fatalf("cost rule skips the probe: %d pairs, costs %d/%d", pairs, costS, costT)
	}
	expandS := costS <= costT
	if !sp.probe(expandS) {
		t.Fatal("probe missed the meeting round")
	}
	if !ref.expand(expandS) {
		t.Fatal("oracle expansion missed the meeting round")
	}
	if !slices.Equal(sp.meet, ref.sp.meet) {
		t.Fatalf("probe meets %v, expansion %v", sp.meet, ref.sp.meet)
	}
	for _, x := range sp.meet {
		if sp.sigS[x] != ref.sp.sigS[x] || sp.distS[x] != ref.sp.distS[x] {
			t.Fatalf("meeting vertex %d: probe sigma %v dist %d, expansion %v dist %d",
				x, sp.sigS[x], sp.distS[x], ref.sp.sigS[x], ref.sp.distS[x])
		}
	}

	checkUniformity(t, g, g, NewSampler(g, rng.NewRand(2)), 0, 1)
}

// TestUnsortedAdjacencyDegrades: on a symmetric CSR whose neighbour lists
// are all reversed, binary searches miss arcs. The sampler must still
// return a genuine shortest path for every pair and never panic; only the
// path distribution may differ.
func TestUnsortedAdjacencyDegrades(t *testing.T) {
	g := rmatLCC(10)
	rev := &graph.Graph{Offsets: g.Offsets, Adj: slices.Clone(g.Adj)}
	for v := range rev.NumNodes() {
		slices.Reverse(rev.Neighbors(graph.Node(v)))
	}
	n := g.NumNodes()
	dist := make([][]uint32, n)
	b := New(g)
	for s := range dist {
		dist[s] = slices.Clone(b.Run(graph.Node(s)))
	}
	sp := NewSampler(rev, rng.NewRand(4))
	for i := 0; i < 20_000; i++ {
		s, tt := sp.SamplePair()
		internal, ok := sp.SamplePath(s, tt)
		if !ok {
			t.Fatalf("connected pair (%d,%d) reported unreachable", s, tt)
		}
		if got := uint32(len(internal)) + 1; got != dist[s][tt] {
			t.Fatalf("pair (%d,%d): path of length %d, distance %d", s, tt, got, dist[s][tt])
		}
		prev := s
		for _, v := range internal {
			if !g.HasEdge(prev, v) {
				t.Fatalf("pair (%d,%d): path %v uses non-edge (%d,%d)", s, tt, internal, prev, v)
			}
			prev = v
		}
		if !g.HasEdge(prev, tt) {
			t.Fatalf("pair (%d,%d): path %v ends on non-edge (%d,%d)", s, tt, internal, prev, tt)
		}
	}
}

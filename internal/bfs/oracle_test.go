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
// adjacency list at every step. It keeps its own per-side arrays and calls
// no kernel code, so the comparison below is kernel against an independent
// reference on the same graph and seed, and no change to the kernel's
// layout or helpers can reach the reference.
type oracle struct {
	fwd, bwd       *graph.Graph
	rng            *rng.Rand
	stampS, stampT []uint32
	distS, distT   []uint32
	sigS, sigT     []float64
	cur            uint32
	frontS, frontT []graph.Node
	meet, path     []graph.Node
}

func newOracle(fwd, bwd *graph.Graph, seed uint64) *oracle {
	n := fwd.NumNodes()
	return &oracle{
		fwd: fwd, bwd: bwd, rng: rng.NewRand(seed),
		stampS: make([]uint32, n), stampT: make([]uint32, n),
		distS: make([]uint32, n), distT: make([]uint32, n),
		sigS: make([]float64, n), sigT: make([]float64, n),
	}
}

// sample draws the pair as Sampler.SamplePair does (s uniform, t uniform
// among the rest) and then its path.
func (o *oracle) sample() ([]graph.Node, bool) {
	n := o.fwd.NumNodes()
	s := graph.Node(o.rng.Intn(n))
	t := graph.Node(o.rng.Intn(n - 1))
	if t >= s {
		t++
	}
	return o.samplePath(s, t)
}

// start stamps s and t as the roots of a new search and reports whether
// both have an arc to follow.
func (o *oracle) start(s, t graph.Node) bool {
	o.cur++
	if o.cur == 0 {
		clear(o.stampS)
		clear(o.stampT)
		o.cur = 1
	}
	cur := o.cur
	o.stampS[s], o.distS[s], o.sigS[s] = cur, 0, 1
	o.stampT[t], o.distT[t], o.sigT[t] = cur, 0, 1
	o.frontS = append(o.frontS[:0], s)
	o.frontT = append(o.frontT[:0], t)
	return o.fwd.Degree(s) > 0 && o.bwd.Degree(t) > 0
}

func (o *oracle) samplePath(s, t graph.Node) ([]graph.Node, bool) {
	if s == t || !o.start(s, t) {
		return nil, false
	}
	cost := func(g *graph.Graph, front []graph.Node) (c int) {
		for _, v := range front {
			c += g.Degree(v)
		}
		return c
	}
	for {
		expandS := cost(o.fwd, o.frontS) <= cost(o.bwd, o.frontT)
		if o.expand(expandS) {
			break
		}
		if (expandS && len(o.frontS) == 0) || (!expandS && len(o.frontT) == 0) {
			return nil, false
		}
	}
	total := 0.0
	for _, x := range o.meet {
		total += o.sigS[x] * o.sigT[x]
	}
	pick := o.rng.Float64() * total
	x := o.meet[len(o.meet)-1]
	for _, cand := range o.meet {
		w := o.sigS[cand] * o.sigT[cand]
		if pick < w {
			x = cand
			break
		}
		pick -= w
	}
	o.path = o.path[:0]
	o.walk(x, s, true)
	slices.Reverse(o.path)
	if x != s && x != t {
		o.path = append(o.path, x)
	}
	o.walk(x, t, false)
	return o.path, true
}

func (o *oracle) expand(sSide bool) bool {
	g, front := o.fwd, &o.frontS
	stamp, otherStamp, dist, otherDist, sig := o.stampS, o.stampT, o.distS, o.distT, o.sigS
	if !sSide {
		g, front = o.bwd, &o.frontT
		stamp, otherStamp, dist, otherDist, sig = o.stampT, o.stampS, o.distT, o.distS, o.sigT
	}
	cur := o.cur
	var next []graph.Node
	o.meet = o.meet[:0]
	bestMeet := Unreached
	for _, u := range *front {
		du, su := dist[u], sig[u]
		for _, w := range g.Neighbors(u) {
			if stamp[w] != cur {
				stamp[w], dist[w], sig[w] = cur, du+1, su
				next = append(next, w)
				if otherStamp[w] == cur {
					d := du + 1 + otherDist[w]
					if d < bestMeet {
						bestMeet = d
						o.meet = o.meet[:0]
					}
					if d == bestMeet {
						o.meet = append(o.meet, w)
					}
				}
			} else if dist[w] == du+1 {
				sig[w] += su
			}
		}
	}
	*front = next
	return len(o.meet) > 0
}

func (o *oracle) walk(x, target graph.Node, toS bool) {
	g, stamp, dist, sig := o.fwd, o.stampT, o.distT, o.sigT
	if toS {
		g, stamp, dist, sig = o.bwd, o.stampS, o.distS, o.sigS
	}
	cur := o.cur
	v := x
	for dist[v] > 0 {
		dv := dist[v]
		pick := o.rng.Float64() * sig[v]
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
			o.path = append(o.path, v)
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

// checkOracle draws oracleSamples samples from a sampler over the views
// fwd and bwd, with hub matrix h, and from an oracle over the same views and
// seed, both starting at stamp cur, and requires the same pairs and the
// same paths, sample for sample.
func checkOracle(t *testing.T, fwd, bwd *graph.Graph, h *Hubs, seed uint64, cur uint32) {
	t.Helper()
	got := newSampler(fwd, bwd, h, rng.NewRand(seed))
	ref := newOracle(fwd, bwd, seed)
	got.cur, ref.cur = cur, cur
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
			checkOracle(t, g, g, NewHubs(g), uint64(scale), 0)
		})
	}
	t.Run("road", func(t *testing.T) {
		g, _ := graph.LargestComponent(gen.Road(gen.RoadParams{Rows: 40, Cols: 40, DeleteProb: 0.1, Seed: 3}))
		checkOracle(t, g, g, NewHubs(g), 5, 0)
	})
	t.Run("randomDigraph", func(t *testing.T) {
		g, _ := graph.LargestSCC(randomDigraph(11, 3000, 12000))
		out, in := views(g)
		checkOracle(t, out, in, NewDirectedHubs(g), 7, 0)
	})
	t.Run("rmatDigraph", func(t *testing.T) {
		g, _ := graph.LargestSCC(mixedOrientation(rmatLCC(12), 9))
		out, in := views(g)
		checkOracle(t, out, in, NewDirectedHubs(g), 8, 0)
	})
}

// TestProbeMatchesOracleAcrossStampWrap starts both kernels just below the
// stamp counter's wrap, so the run crosses the clear-and-restart path.
func TestProbeMatchesOracleAcrossStampWrap(t *testing.T) {
	g := rmatLCC(10)
	checkOracle(t, g, g, NewHubs(g), 3, math.MaxUint32-uint32(oracleSamples()/2))
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
	sp := NewSampler(g, NewHubs(g), rng.NewRand(1))
	sp.cur++
	sp.vs[0][0] = half{stamp: sp.cur, sig: 1}
	sp.vs[1][1] = half{stamp: sp.cur, sig: 1}
	sp.frontS = append(sp.frontS[:0], 0)
	sp.frontT = append(sp.frontT[:0], 1)
	ref := newOracle(g, g, 1)
	ref.start(0, 1)
	if sp.expand(true) || sp.expand(false) || ref.expand(true) || ref.expand(false) {
		t.Fatal("balls met before the third round")
	}

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
	if !slices.Equal(sp.meet, ref.meet) {
		t.Fatalf("probe meets %v, expansion %v", sp.meet, ref.meet)
	}
	for _, x := range sp.meet {
		if got := sp.vs[x][0]; got.sig != ref.sigS[x] || got.dist != ref.distS[x] {
			t.Fatalf("meeting vertex %d: probe sigma %v dist %d, expansion %v dist %d",
				x, got.sig, got.dist, ref.sigS[x], ref.distS[x])
		}
	}

	checkUniformity(t, g, g, NewSampler(g, NewHubs(g), rng.NewRand(2)), 0, 1)
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
	sp := NewSampler(rev, NewHubs(rev), rng.NewRand(4))
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

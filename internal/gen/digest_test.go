package gen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The generators and the graph layer's builders must not change a single
// output byte: every benchmark input, every cached daemon result key and
// every golden estimate hangs off these graphs. Each digest below was
// recorded from the comparison-sort builders and the map-based LCC that
// preceded the radix-sorted construction path, so a pass proves the two
// paths agree byte for byte.

type digestCase struct {
	name   string
	short  bool // part of the -short run
	build  func() *graph.Graph
	digest string
	lcc    string
}

func TestGeneratorDigests(t *testing.T) {
	rmat := func(scale int) func() *graph.Graph {
		return func() *graph.Graph { return RMAT(Graph500(scale, 16, 1)) }
	}
	cases := []digestCase{
		{"rmat10", true, rmat(10),
			"sha256:23afa681ab8b9aee1b1f417d8ef0cdce6ff3184cb6fb3b2d151a9b0ab708a949",
			"sha256:795118ef3dc5822a1b522c4cf2ce65723dfea68847fcbb120845b9086c8e0e0c"},
		{"rmat12", true, rmat(12),
			"sha256:5d5d2ffe88567b9b8bd83458ccb1f6841de00f8ff77681d60d1e6d724da74653",
			"sha256:afd21d61f393814521db2dc92915eec9db1dc1ce21ef50446dd304b66b85e9e9"},
		{"rmat16", false, rmat(16),
			"sha256:f67906820d7624e1375f80075ef46b82cf2073af5c35bb2d4c7e6f2850e582f2",
			"sha256:faf783ead899b4e8694332f47fa6fd595ebd387d795c79985ab0485220c6f973"},
		// road-shm's input: connected, so its LCC is the graph itself.
		{"road120", true, func() *graph.Graph {
			return Road(RoadParams{Rows: 120, Cols: 120, DeleteProb: 0.1, Seed: 1})
		},
			"sha256:72bec7a8a4a41860b7dc79e42aad6a06edebb0b2d944909b92e2bb838364420f",
			"sha256:72bec7a8a4a41860b7dc79e42aad6a06edebb0b2d944909b92e2bb838364420f"},
		// Heavy deletion breaks the lattice, so the LCC is a real subgraph.
		{"road120-sparse", true, func() *graph.Graph {
			return Road(RoadParams{Rows: 120, Cols: 120, DeleteProb: 0.4, Seed: 1})
		},
			"sha256:13b4f0d6cfa792eedf37cb31a7cfddc0ebaa123b6b31eba366f0b5d410e708a3",
			"sha256:9e8dee0b9e68604828d66f9118ac423037a0f4c954abb4f33922b54c022418bd"},
		{"hyperbolic2000", true, func() *graph.Graph {
			return Hyperbolic(HyperbolicParams{N: 2000, AvgDegree: 10, Gamma: 3, Seed: 1})
		},
			"sha256:108b7871d95c2969adbb555a96cb60aad6051c6935a78beafb2076abbb76d637", ""},
		{"er1000", true, func() *graph.Graph { return ErdosRenyi(1000, 4000, 1) },
			"sha256:f95e184c31e0d7e4566a4c05c60b59443cc01f012a25e048e75d7b00e7918650", ""},
		{"ba1000", true, func() *graph.Graph { return BarabasiAlbert(1000, 3, 1) },
			"sha256:1f7ebf5aa2803df911c6f6a9f6c1bbcc98fcbbf50eb45f12ff2f29df9433256d", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("full-size digest; runs without -short")
			}
			g := c.build()
			if got := g.Digest(); got != c.digest {
				t.Errorf("graph digest %s, want %s", got, c.digest)
			}
			if c.lcc == "" {
				return
			}
			lcc, _ := graph.LargestComponent(g)
			if got := lcc.Digest(); got != c.lcc {
				t.Errorf("LCC digest %s, want %s", got, c.lcc)
			}
		})
	}
}

// TestWeightedDigests pins FromWeightedEdges (through RandomWeights) and
// LargestComponentW on weighted-seq's input family.
func TestWeightedDigests(t *testing.T) {
	const lcc = "sha256:3fe6bcdcdd5edab14fb870fb76194003d994c9365815569da2407367964a089a"
	base, _ := graph.LargestComponent(RMAT(Graph500(11, 16, 1)))
	w := RandomWeights(base, 10, 1)
	if got := w.Digest(); got != lcc {
		t.Errorf("RandomWeights(LCC) digest %s, want %s", got, lcc)
	}
	// Already connected: LargestComponentW hands it back unchanged.
	if sub, remap := graph.LargestComponentW(w); sub != w || remap != nil {
		t.Error("LargestComponentW copied a connected graph")
	}
	// Weighting the raw graph leaves isolated vertices, so LargestComponentW
	// renumbers; R-MAT 11's edges all lie in its LCC, so the result is the
	// weighted LCC above.
	raw := RandomWeights(RMAT(Graph500(11, 16, 1)), 10, 1)
	if got, want := raw.Digest(), "sha256:a05c1953192211eb0e34848ce7741d4c5e397cc21ea8e9ac3ab2f5193f51b5ac"; got != want {
		t.Errorf("RandomWeights(raw) digest %s, want %s", got, want)
	}
	sub, remap := graph.LargestComponentW(raw)
	if remap == nil {
		t.Fatal("LargestComponentW kept a disconnected graph whole")
	}
	if got := sub.Digest(); got != lcc {
		t.Errorf("LargestComponentW(raw) digest %s, want %s", got, lcc)
	}
}

// TestDirectedDigests pins FromArcs, LargestSCC and Underlying. A digraph's
// Digest covers its out-lists only, so each in-CSR is pinned as the digest
// of the transpose.
func TestDirectedDigests(t *testing.T) {
	transpose := func(g *graph.Digraph) string {
		return (&graph.Digraph{OutOffsets: g.InOffsets, OutAdj: g.InAdj}).Digest()
	}
	check := func(what string, g *graph.Digraph, out, in string) {
		t.Helper()
		if got := g.Digest(); got != out {
			t.Errorf("%s: digest %s, want %s", what, got, out)
		}
		if got := transpose(g); got != in {
			t.Errorf("%s: transpose digest %s, want %s", what, got, in)
		}
	}
	// Strongly connected by construction: its SCC is all of it.
	d := RandomDigraph(2000, 10000, 1)
	const rdOut = "sha256:baf5d58292cafa56d5ba443af0046b5c3c6ceb1a935644b8cef7cddad173ddbc"
	const rdIn = "sha256:b3a22abb6e704bed7ee573dbbdba4c099ad2539d95d09e856ae4603511dbf9a3"
	check("RandomDigraph", d, rdOut, rdIn)
	scc, _ := graph.LargestSCC(d)
	check("LargestSCC(RandomDigraph)", scc, rdOut, rdIn)

	// 4500 uniform arcs on 3000 vertices: many SCCs, the largest 1090.
	r := rng.NewRand(7)
	arcs := make([][2]graph.Node, 4500)
	for i := range arcs {
		arcs[i] = [2]graph.Node{graph.Node(r.Intn(3000)), graph.Node(r.Intn(3000))}
	}
	g := graph.FromArcs(3000, arcs)
	check("FromArcs", g,
		"sha256:e34498513cf9e1fe96315a003ef043f2286a1599b6963ac31d2d182cafed40ef",
		"sha256:90b8e38a0481e72197d1912ccd69bac1b18aa2b72943d7a25e99a4ecfa640064")
	scc, _ = graph.LargestSCC(g)
	check("LargestSCC", scc,
		"sha256:1ac3f1112f213bf2175eaa1eb87de4c5e71881b407f0d4c0622dfd69e577fadd",
		"sha256:574d7e665aef1697396c44af7fc12502af1fa48649896c755e3a840b5342fb82")
	if got, want := g.Underlying().Digest(), "sha256:b1daff60bc780cc159fc82666ac26bd540c387ec415b3270ca844bfc4403cd24"; got != want {
		t.Errorf("Underlying: digest %s, want %s", got, want)
	}
}

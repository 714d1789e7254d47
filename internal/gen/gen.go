// Package gen provides synthetic graph generators used to build laptop-scale
// proxies for the paper's instances (Table I) and the synthetic sweeps of
// Figure 4.
//
// The paper evaluates on three families:
//
//   - complex networks (social / hyperlink): modeled by R-MAT with the
//     Graph500 parameters (a,b,c,d) = (0.57, 0.19, 0.19, 0.05), exactly as in
//     §V-A;
//   - random hyperbolic graphs with power-law exponent 3, also per §V-A;
//   - road networks (high diameter, near-planar): modeled by a perturbed
//     2D lattice with randomized diagonals and deletions, mimicking the
//     degree distribution (~2.6 average) and huge diameter of
//     roadNet-PA/CA and dimacs9-NE.
//
// Erdős–Rényi and Barabási–Albert generators are included as test substrates.
// All generators are deterministic given a seed.
package gen

import (
	"math"
	"runtime"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// RMATParams configures the recursive-matrix generator.
type RMATParams struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the number of (directed, pre-dedup) edges generated per
	// vertex. The paper uses |E| = 30|V| density for synthetic experiments,
	// i.e. EdgeFactor 30 before deduplication.
	EdgeFactor int
	// A, B, C are the recursive quadrant probabilities; D = 1-A-B-C.
	// Graph500 uses (0.57, 0.19, 0.19).
	A, B, C float64
	// Seed drives the RNG.
	Seed uint64
	// Noise perturbs the quadrant probabilities per level (Graph500-style
	// smoothing that avoids degenerate staircase structure). 0.1 is typical;
	// 0 disables.
	Noise float64
}

// Graph500 returns the standard Graph500 R-MAT parameters at the given scale
// and edge factor, matching the paper's synthetic setup.
func Graph500(scale, edgeFactor int, seed uint64) RMATParams {
	return RMATParams{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed, Noise: 0.1}
}

// RMAT generates an R-MAT graph. Self loops and duplicate edges are removed
// by the builder, so the realized edge count is slightly below
// EdgeFactor * 2^Scale, as with the real Graph500 kernel.
//
// Generation uses every CPU: the edges split into GOMAXPROCS contiguous
// chunks, each worker jumps its own copy of the seeded stream to its
// chunk's first draw and writes its edges into its own range of the
// Builder, and Build's sort makes the chunks' order irrelevant. The graph
// is byte-identical for any GOMAXPROCS, and to building from StreamRMAT's
// serial edge sequence; a graph under rmatMinChunk edges per worker is
// generated on fewer workers, down to one.
func RMAT(p RMATParams) *graph.Graph {
	return rmat(p, min(runtime.GOMAXPROCS(0), p.numEdges()/rmatMinChunk))
}

// rmatMinChunk is the fewest edges worth a worker of their own: a few
// milliseconds of generation, against microseconds to jump and start it.
const rmatMinChunk = 1 << 13

// rmat is RMAT on workers goroutines.
func rmat(p RMATParams, workers int) *graph.Graph {
	m := p.numEdges()
	b := graph.NewBuilder(1 << p.Scale)
	graph.AddConcurrently(b, m, workers, func(lo, hi int, s *graph.EdgeSink) {
		e, r := newRMATEdges(p), rng.NewRand(p.Seed)
		r.Jump(uint64(lo) * e.drawsPerEdge())
		for range hi - lo {
			s.AddEdge(e.next(r))
		}
	})
	return b.Build()
}

// numEdges is the raw edge count EdgeFactor * 2^Scale. It panics on a
// scale outside [0, 30].
func (p RMATParams) numEdges() int {
	if p.Scale < 0 || p.Scale > 30 {
		panic("gen: RMAT scale out of range [0, 30]")
	}
	return p.EdgeFactor << p.Scale
}

// rmatEdges draws R-MAT edges from a generator. Every edge takes the same
// number of draws, in the order the level loop consumes them: with noise,
// four quadrant perturbations then the quadrant pick per level; without,
// the pick alone. So edge i starts at draw i·drawsPerEdge of the seeded
// stream, which is where a worker starting at edge i jumps to.
type rmatEdges struct {
	p        RMATParams
	d        float64 // D = 1-A-B-C
	perLevel int
	draws    []float64 // one edge's draws
}

func newRMATEdges(p RMATParams) *rmatEdges {
	perLevel := 1
	if p.Noise > 0 {
		perLevel = 5
	}
	return &rmatEdges{p: p, d: 1 - p.A - p.B - p.C, perLevel: perLevel, draws: make([]float64, perLevel*p.Scale)}
}

func (e *rmatEdges) drawsPerEdge() uint64 { return uint64(len(e.draws)) }

// next draws one edge from r.
//
//bc:hotpath
func (e *rmatEdges) next(r *rng.Rand) (graph.Node, graph.Node) {
	p, perLevel := &e.p, e.perLevel
	r.Float64s(e.draws)
	u, v := 0, 0
	for level, f := 0, e.draws; level < p.Scale; level, f = level+1, f[perLevel:] {
		a, bb, c := p.A, p.B, p.C
		if p.Noise > 0 {
			// Multiplicative noise, renormalized.
			a *= 1 - p.Noise/2 + p.Noise*f[0]
			bb *= 1 - p.Noise/2 + p.Noise*f[1]
			c *= 1 - p.Noise/2 + p.Noise*f[2]
			dd := e.d * (1 - p.Noise/2 + p.Noise*f[3])
			s := a + bb + c + dd
			a, bb, c = a/s, bb/s, c/s
		}
		// The quadrant is the first of a, b, c, d whose cumulative
		// probability exceeds x: b sets v's bit, c sets u's, d both.
		// As 0/1 flags (which compile to conditional moves, not to
		// branches on a random x): u's bit is x >= a+b, and v's bit,
		// set in b and d, is the parity of the three thresholds passed.
		x := f[perLevel-1]
		ab := a + bb
		var ga, gab, gabc int
		if x >= a {
			ga = 1
		}
		if x >= ab {
			gab = 1
		}
		if x >= ab+c {
			gabc = 1
		}
		u |= gab << level
		v |= (ga ^ gab ^ gabc) << level
	}
	return graph.Node(u), graph.Node(v)
}

// ErdosRenyi generates G(n, m): m edges sampled uniformly (with rejection of
// duplicates left to the builder).
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	StreamErdosRenyi(n, m, seed, func(u, v graph.Node) error { b.AddEdge(u, v); return nil })
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k edges to existing vertices chosen proportionally to degree
// (implemented with the standard repeated-endpoint trick).
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 {
		panic("gen: BarabasiAlbert needs k >= 1")
	}
	if n < k+1 {
		panic("gen: BarabasiAlbert needs n > k")
	}
	r := rng.NewRand(seed)
	b := graph.NewBuilder(n)
	// endpoint list: every edge endpoint appears once; sampling uniformly
	// from it is degree-proportional sampling.
	endpoints := make([]graph.Node, 0, 2*k*n)
	// Seed clique on k+1 vertices.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			b.AddEdge(graph.Node(u), graph.Node(v))
			endpoints = append(endpoints, graph.Node(u), graph.Node(v))
		}
	}
	for v := k + 1; v < n; v++ {
		for e := 0; e < k; e++ {
			u := endpoints[r.Intn(len(endpoints))]
			b.AddEdge(graph.Node(v), u)
			endpoints = append(endpoints, graph.Node(v), u)
		}
	}
	return b.Build()
}

// RoadParams configures the road-network proxy generator.
type RoadParams struct {
	// Rows, Cols give the lattice dimensions; n = Rows*Cols.
	Rows, Cols int
	// DeleteProb removes each lattice edge independently (creating detours
	// that increase the diameter and produce degree-2 chains like real road
	// networks). Keep below ~0.3 to stay connected in practice; the caller
	// should extract the largest component regardless.
	DeleteProb float64
	// DiagonalProb adds a diagonal shortcut in each lattice cell.
	DiagonalProb float64
	Seed         uint64
}

// Road generates a road-network-like graph: a 2D lattice with random edge
// deletions and sparse diagonals. Average degree lands between 2 and 3 and
// the diameter is Θ(Rows+Cols), matching the character of roadNet-PA/CA.
func Road(p RoadParams) *graph.Graph {
	if p.Rows < 1 || p.Cols < 1 {
		panic("gen: Road needs positive dimensions")
	}
	b := graph.NewBuilder(p.Rows * p.Cols)
	StreamRoad(p, func(u, v graph.Node) error { b.AddEdge(u, v); return nil })
	return b.Build()
}

// HyperbolicParams configures the random hyperbolic graph generator
// (threshold model / "unit-disk" in the hyperbolic plane).
type HyperbolicParams struct {
	// N is the number of vertices.
	N int
	// AvgDegree is the target average degree; the paper uses 2|E|/|V| = 60
	// (from |E| = 30 |V|).
	AvgDegree float64
	// Gamma is the power-law exponent of the degree distribution; the paper
	// uses 3. Internally alpha = (Gamma-1)/2.
	Gamma float64
	Seed  uint64
}

// Hyperbolic generates a random hyperbolic graph in the threshold model:
// points are placed in a hyperbolic disk of radius R with radial density
// proportional to sinh(alpha*r); two points are adjacent iff their hyperbolic
// distance is at most R. R is calibrated so the expected average degree is
// approximately AvgDegree (calibration from Krioukov et al., refined by a
// binary search over a sampled estimate).
//
// The implementation avoids the naive O(n^2) distance test by sorting points
// by angle and band-partitioning by radius, pruning candidate pairs with the
// standard angular bound cos(dTheta) threshold. This keeps generation
// practical up to millions of vertices.
func Hyperbolic(p HyperbolicParams) *graph.Graph {
	if p.N < 2 {
		panic("gen: Hyperbolic needs N >= 2")
	}
	if p.Gamma <= 2 {
		panic("gen: Hyperbolic needs Gamma > 2")
	}
	alpha := (p.Gamma - 1) / 2
	r := rng.NewRand(p.Seed)

	// Radius calibration (Krioukov et al. 2010): for the threshold model,
	// the expected degree is approximately
	//   k ≈ (2/π) * ξ² * n * e^{-R/2},  ξ = alpha/(alpha-1/2)
	// Solve for R.
	xi := alpha / (alpha - 0.5)
	R := 2 * math.Log(float64(p.N)*2*xi*xi/(math.Pi*p.AvgDegree))

	// Sample points: theta uniform, radius from density sinh(alpha r)/ (cosh(alpha R)-1)
	// via inversion: F(r) = (cosh(alpha r)-1)/(cosh(alpha R)-1).
	type point struct {
		theta, r float64
		id       graph.Node
	}
	pts := make([]point, p.N)
	denom := math.Cosh(alpha*R) - 1
	for i := range pts {
		u := r.Float64()
		rad := math.Acosh(1+u*denom) / alpha
		pts[i] = point{theta: 2 * math.Pi * r.Float64(), r: rad, id: graph.Node(i)}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].theta < pts[j].theta })

	b := graph.NewBuilder(p.N)
	coshR := math.Cosh(R)
	// Precompute cosh/sinh of radii.
	coshr := make([]float64, p.N)
	sinhr := make([]float64, p.N)
	for i, pt := range pts {
		coshr[i] = math.Cosh(pt.r)
		sinhr[i] = math.Sinh(pt.r)
	}
	// Sweep pairs within an angular pruning window. Two points at radii
	// r1, r2 are adjacent iff their angular distance dTheta satisfies
	//   cosh d = cosh r1 cosh r2 - sinh r1 sinh r2 cos(dTheta) <= cosh R
	// i.e. cos(dTheta) >= (cosh r1 cosh r2 - cosh R)/(sinh r1 sinh r2).
	// The right-hand side is increasing in r2 (because cosh R >= cosh r1 for
	// in-disk points), so the angular bound computed against the most
	// central point rMin is the loosest over all partners. For each i we
	// therefore scan forward in angle (with wrap) while the forward gap is
	// at most that loose bound; every adjacent pair is discovered from at
	// least the endpoint that sees the pair at its true (<= pi) angular
	// distance, and the builder removes any pair found from both sides.
	rMin := math.Inf(1)
	for _, pt := range pts {
		if pt.r < rMin {
			rMin = pt.r
		}
	}
	coshRMin, sinhRMin := math.Cosh(rMin), math.Sinh(rMin)
	n := p.N
	for i := 0; i < n; i++ {
		var maxGap float64
		if sinhr[i]*sinhRMin == 0 {
			maxGap = math.Pi
		} else {
			c := (coshr[i]*coshRMin - coshR) / (sinhr[i] * sinhRMin)
			switch {
			case c <= -1:
				maxGap = math.Pi
			case c >= 1:
				maxGap = 0
			default:
				maxGap = math.Acos(c)
			}
		}
		for off := 1; off < n; off++ {
			j := i + off
			wrapped := false
			if j >= n {
				j -= n
				wrapped = true
			}
			fwd := pts[j].theta - pts[i].theta
			if wrapped {
				fwd += 2 * math.Pi
			}
			if fwd > maxGap || fwd > math.Pi {
				break
			}
			coshd := coshr[i]*coshr[j] - sinhr[i]*sinhr[j]*math.Cos(fwd)
			if coshd <= coshR {
				b.AddEdge(pts[i].id, pts[j].id)
			}
		}
	}
	return b.Build()
}

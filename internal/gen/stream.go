package gen

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Streaming generator variants. These emit the same edge sequence as
// their materializing counterparts — same RNG, same order — through a
// callback instead of a Builder, so multi-hundred-million-edge instances
// can flow straight into the out-of-core converter (internal/bigio)
// without the O(edges) slice a Builder accumulates. The materializing
// generators are thin wrappers over these, which is what keeps the two
// paths identical by construction.
//
// Only generators whose state is O(1)-per-edge stream: R-MAT, G(n, m),
// and the road lattice. Barabási–Albert needs the full endpoint history
// and Hyperbolic needs all coordinates; both are inherently
// materializing.

// StreamRMAT generates the R-MAT edge stream: EdgeFactor * 2^Scale raw
// edges (self loops and duplicates included — downstream consumers drop
// them, exactly as the Builder does for RMAT).
func StreamRMAT(p RMATParams, emit func(u, v graph.Node) error) error {
	if p.Scale < 0 || p.Scale > 30 {
		panic("gen: RMAT scale out of range [0, 30]")
	}
	n := 1 << p.Scale
	m := p.EdgeFactor * n
	r := rng.NewRand(p.Seed)
	d := 1 - p.A - p.B - p.C
	// One edge's draws in one batch, in the order the level loop consumes
	// them: with noise, four quadrant perturbations then the quadrant pick
	// per level; without, the pick alone.
	perLevel := 1
	if p.Noise > 0 {
		perLevel = 5
	}
	draws := make([]float64, perLevel*p.Scale)
	for i := 0; i < m; i++ {
		r.Float64s(draws)
		u, v := 0, 0
		for level, f := 0, draws; level < p.Scale; level, f = level+1, f[perLevel:] {
			a, bb, c := p.A, p.B, p.C
			if p.Noise > 0 {
				// Multiplicative noise, renormalized.
				a *= 1 - p.Noise/2 + p.Noise*f[0]
				bb *= 1 - p.Noise/2 + p.Noise*f[1]
				c *= 1 - p.Noise/2 + p.Noise*f[2]
				dd := d * (1 - p.Noise/2 + p.Noise*f[3])
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
		if err := emit(graph.Node(u), graph.Node(v)); err != nil {
			return err
		}
	}
	return nil
}

// StreamErdosRenyi generates the G(n, m) edge stream: m uniform edges,
// self loops and duplicates included.
func StreamErdosRenyi(n, m int, seed uint64, emit func(u, v graph.Node) error) error {
	r := rng.NewRand(seed)
	for i := 0; i < m; i++ {
		if err := emit(graph.Node(r.Intn(n)), graph.Node(r.Intn(n))); err != nil {
			return err
		}
	}
	return nil
}

// StreamRoad generates the perturbed-lattice edge stream.
func StreamRoad(p RoadParams, emit func(u, v graph.Node) error) error {
	if p.Rows < 1 || p.Cols < 1 {
		panic("gen: Road needs positive dimensions")
	}
	r := rng.NewRand(p.Seed)
	id := func(i, j int) graph.Node { return graph.Node(i*p.Cols + j) }
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			if j+1 < p.Cols && r.Float64() >= p.DeleteProb {
				if err := emit(id(i, j), id(i, j+1)); err != nil {
					return err
				}
			}
			if i+1 < p.Rows && r.Float64() >= p.DeleteProb {
				if err := emit(id(i, j), id(i+1, j)); err != nil {
					return err
				}
			}
			if i+1 < p.Rows && j+1 < p.Cols && r.Float64() < p.DiagonalProb {
				if err := emit(id(i, j), id(i+1, j+1)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

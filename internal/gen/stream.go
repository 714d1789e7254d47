package gen

import (
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Streaming generator variants. These emit the same edge sequence as
// their materializing counterparts — same RNG, same order — through a
// callback instead of a Builder, so multi-hundred-million-edge instances
// can flow straight into the out-of-core converter (internal/bigio)
// without the O(edges) slice a Builder accumulates. The materializing
// generators are thin wrappers over these, which is what keeps the two
// paths identical by construction; RMAT, which fills its Builder from
// several workers, shares StreamRMAT's per-edge draw (rmatEdges) and the
// jump to each worker's first edge instead.
//
// Only generators whose state is O(1)-per-edge stream: R-MAT, G(n, m),
// and the road lattice. Barabási–Albert needs the full endpoint history
// and Hyperbolic needs all coordinates; both are inherently
// materializing.

// StreamRMAT generates the R-MAT edge stream: EdgeFactor * 2^Scale raw
// edges (self loops and duplicates included — downstream consumers drop
// them, exactly as the Builder does for RMAT).
//
// Generation uses every CPU: workers produce chunks of the stream at once,
// each from its own generator jumped to the chunk's first draw, and the
// chunks are emitted in stream order from a bounded set of buffers, so
// memory stays O(GOMAXPROCS × chunk) whatever the edge count. The sequence
// emit sees is the serial one, edge for edge, for any GOMAXPROCS.
func StreamRMAT(p RMATParams, emit func(u, v graph.Node) error) error {
	m := p.numEdges()
	return streamRMAT(p, min(runtime.GOMAXPROCS(0), (m+streamChunk-1)/streamChunk), streamChunk, emit)
}

// streamChunk is the edges a StreamRMAT worker generates per buffer:
// 512 KiB of pairs and tens of milliseconds of work, against a jump of
// microseconds.
const streamChunk = 1 << 16

// streamRMAT is StreamRMAT on workers goroutines with chunk-edge buffers;
// one worker generates inline.
func streamRMAT(p RMATParams, workers, chunk int, emit func(u, v graph.Node) error) error {
	m := p.numEdges()
	if workers <= 1 {
		e, r := newRMATEdges(p), rng.NewRand(p.Seed)
		for range m {
			if err := emit(e.next(r)); err != nil {
				return err
			}
		}
		return nil
	}
	// Worker w generates chunks w, w+workers, ... into its two buffers and
	// hands each over on full[w]; the caller's loop takes the chunks in
	// order and returns each buffer on free[w]. Both channels hold two, a
	// worker's every buffer, so no send on them blocks.
	chunks := (m + chunk - 1) / chunk
	full := make([]chan [][2]graph.Node, workers)
	free := make([]chan [][2]graph.Node, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for w := range workers {
		full[w], free[w] = make(chan [][2]graph.Node, 2), make(chan [][2]graph.Node, 2)
		free[w] <- make([][2]graph.Node, 0, chunk)
		free[w] <- make([][2]graph.Node, 0, chunk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, r := newRMATEdges(p), rng.NewRand(p.Seed)
			at := 0 // the edge r draws next
			for c := w; c < chunks; c += workers {
				var buf [][2]graph.Node
				select {
				case buf = <-free[w]:
				case <-done:
					return
				}
				r.Jump(uint64(c*chunk-at) * e.drawsPerEdge())
				buf = buf[:0]
				for at = c * chunk; at < min(m, (c+1)*chunk); at++ {
					u, v := e.next(r)
					buf = append(buf, [2]graph.Node{u, v})
				}
				full[w] <- buf
			}
		}()
	}
	for c := range chunks {
		buf := <-full[c%workers]
		for _, uv := range buf {
			if err := emit(uv[0], uv[1]); err != nil {
				return err
			}
		}
		free[c%workers] <- buf
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

package epoch

import (
	"testing"

	"repro/internal/rng"
)

// The micro-benchmarks model the per-epoch hot path on the issue's target
// configuration: a 100k-vertex graph at the default epoch length (n0 ≈
// 1000 samples per thread per epoch, ~5 internal vertices per sample), T=4
// sampling threads, so every epoch frame stays on the touched-list path.

const (
	benchN     = 100_000
	benchT     = 4
	benchBumps = 5000 // n0 × avg path length per thread per epoch
)

// benchVerts pre-generates one thread's per-epoch vertex stream.
func benchVerts(seed uint64) []uint32 {
	r := rng.NewRand(seed)
	verts := make([]uint32, benchBumps)
	for i := range verts {
		verts[i] = uint32(r.Intn(benchN))
	}
	return verts
}

// benchFrame returns one thread's frame after one epoch's worth of samples.
func benchFrame(seed uint64) *StateFrame {
	sf := NewStateFrame(benchN)
	for _, v := range benchVerts(seed) {
		sf.Bump(v)
	}
	sf.Tau = benchBumps
	return sf
}

// BenchmarkAggregateEpoch measures the coordinator's epoch consumption —
// dst.Add(frame) + frame.Reset() over T frames, the body of
// Framework.AggregateEpoch — with frames holding one epoch's worth of
// samples. The accumulated state dst is dense after the first epoch, as in
// any real run.
func BenchmarkAggregateEpoch(b *testing.B) {
	verts := benchVerts(42)
	frames := make([]*StateFrame, benchT)
	for t := range frames {
		frames[t] = NewStateFrame(benchN)
	}
	dst := NewStateFrame(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, sf := range frames {
			for _, v := range verts {
				sf.Bump(v)
			}
			sf.Tau = benchBumps
		}
		b.StartTimer()
		for _, sf := range frames {
			dst.Add(sf)
			sf.Reset()
		}
	}
}

// BenchmarkWireEncode measures one rank's per-epoch frame serialization for
// the MPI reduction and reports the wire size, which must come out far below
// the 8·n = 800 kB a dense frame takes.
func BenchmarkWireEncode(b *testing.B) {
	sf := benchFrame(42)
	buf := AppendWire(nil, sf, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendWire(buf[:0], sf, false)
	}
	b.ReportMetric(float64(len(buf)), "bytes/frame")
}

// BenchmarkWireMerge measures one reduction-tree edge: merging two
// one-epoch frames.
func BenchmarkWireMerge(b *testing.B) {
	wa := AppendWire(nil, benchFrame(42), false)
	wc := AppendWire(nil, benchFrame(43), false)
	scratch := make([]byte, len(wa))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// MergeWire may mutate its inputs; merge from a copy.
		scratch = append(scratch[:0], wa...)
		if _, err := MergeWire(scratch, wc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFold measures rank 0 folding a reduced frame into the global
// state vector.
func BenchmarkWireFold(b *testing.B) {
	buf := AppendWire(nil, benchFrame(42), false)
	S := make([]int64, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FoldWire(buf, S); err != nil {
			b.Fatal(err)
		}
	}
}

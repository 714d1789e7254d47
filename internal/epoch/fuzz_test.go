package epoch

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rng"
)

// fuzzN is the vector length the fuzzed decoders expect; small, so a frame
// goes dense after a handful of vertices and the corpus reaches both
// encodings.
const fuzzN = 64

// fuzzSeeds returns wire encodings of an empty, a sparse and a naturally
// dense frame, each whole and truncated, plus headers that lie about n.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, sf := range []*StateFrame{
		NewStateFrame(fuzzN),
		frameOf(t, rng.NewRand(1), fuzzN, false),
		frameOf(t, rng.NewRand(2), fuzzN, true),
	} {
		wire := AppendWire(nil, sf, false)
		seeds = append(seeds, wire, wire[:len(wire)/2], wire[:len(wire)-1])
	}
	return append(seeds,
		nil,
		[]byte{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 0, 0, 0, 0, 0, 0}, // dense, n = 2^61: 8n wraps to 0
		[]byte{wireFlagSparse, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},      // sparse, n = 2^64-1
	)
}

// FuzzParseFrame feeds arbitrary bytes to the checkpoint frame decoder: it
// must return an error or a frame that re-encodes to an equal one, never
// panic, and never size an allocation from a length in the input.
func FuzzParseFrame(f *testing.F) {
	for _, wire := range fuzzSeeds(f) {
		framed := append([]byte{byte(len(wire)), byte(len(wire) >> 8), 0, 0}, wire...)
		f.Add(framed)
		f.Add(framed[:len(framed)/2])
		f.Add(wire) // no length prefix: the first four bytes are read as one
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, rest, err := ParseFrame(data, fuzzN)
		if err != nil {
			return
		}
		if len(sf.C) != fuzzN || sf.Tau < 0 || len(rest) > len(data)-4 {
			t.Fatalf("accepted frame of length %d, tau %d, %d of %d bytes left", len(sf.C), sf.Tau, len(rest), len(data))
		}
		again, _, err := ParseFrame(AppendFrame(nil, sf), fuzzN)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again.Tau != sf.Tau || !slices.Equal(again.C, sf.C) || again.Dense() != sf.Dense() {
			t.Fatal("frame changed across a second round trip")
		}
	})
}

// FuzzFoldWire feeds arbitrary bytes to both reduce-frame folds (the plain
// vector and the frame method): error or success together, the same counts
// on success, never a panic.
func FuzzFoldWire(f *testing.F) {
	for _, wire := range fuzzSeeds(f) {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		counts := make([]int64, fuzzN)
		tau, _, err := FoldWire(bytes.Clone(data), counts)
		sf := NewStateFrame(fuzzN)
		_, errFrame := sf.FoldWire(data)
		if (err == nil) != (errFrame == nil) {
			t.Fatalf("FoldWire err %v, StateFrame.FoldWire err %v", err, errFrame)
		}
		if err == nil && (sf.Tau != tau || !slices.Equal(sf.C, counts)) {
			t.Fatal("the two folds disagree on an accepted frame")
		}
	})
}

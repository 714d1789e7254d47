package epoch

import (
	"bytes"
	"encoding/binary"
	"math"
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

// mergeSeeds returns frame pairs for FuzzMergeWire: sparse⊕sparse whose
// union stays under DenseCutover and whose union passes it, dense⊕sparse,
// mismatched n, and sparse frames claiming more pairs than their body holds
// (one at n = 2^32-1, where densifying from the claim would need 32 GiB).
func mergeSeeds(t testing.TB) [][2][]byte {
	wire := func(n int, cancelled bool, vs ...uint32) []byte {
		sf := NewStateFrame(n)
		for i, v := range vs {
			sf.addCount(v, int64(i+1))
		}
		sf.Tau = int64(len(vs))
		return AppendWire(nil, sf, cancelled)
	}
	var evens, odds []uint32
	for v := uint32(0); v < 30; v += 2 {
		evens, odds = append(evens, v), append(odds, v+1)
	}
	small, below := wire(fuzzN, false, 3, 9, 40), wire(fuzzN, true, 9, 41, 63)
	lying := bytes.Clone(small)
	binary.LittleEndian.PutUint32(lying[1+1+8:], math.MaxUint32) // n = 64 is a one-byte varint
	huge := []byte{wireFlagSparse, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 1}
	dense := AppendWire(nil, frameOf(t, rng.NewRand(3), fuzzN, true), false)
	return [][2][]byte{
		{small, below},
		{wire(fuzzN, false, evens...), wire(fuzzN, false, odds...)},
		{dense, small},
		{small, dense},
		{small, wire(fuzzN+1, false, 3)},
		{lying, small},
		{huge, huge},
	}
}

// FuzzMergeWire feeds two arbitrary frames to the reduction operator: it
// must return an error or a frame, never panic and never size an allocation
// from an unchecked length. When both inputs fold at the same (small) n,
// the merge must succeed, and folding it must equal folding the two inputs:
// counts, tau and the cancellation flag.
func FuzzMergeWire(f *testing.F) {
	for _, pair := range mergeSeeds(f) {
		f.Add(pair[0], pair[1])
	}
	const maxFoldN = 1 << 12
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ha, errA := parseWire(a)
		hb, errB := parseWire(b)
		folds := errA == nil && errB == nil && ha.n == hb.n && ha.n <= maxFoldN
		var want []int64
		var wantTau int64
		var wantCancelled bool
		if folds {
			want = make([]int64, ha.n)
			tauA, cA, errA := FoldWire(a, want)
			tauB, cB, errB := FoldWire(b, want)
			folds = errA == nil && errB == nil
			wantTau, wantCancelled = tauA+tauB, cA || cB
		}
		merged, err := MergeWire(bytes.Clone(a), bytes.Clone(b))
		if !folds {
			return
		}
		if err != nil {
			t.Fatalf("MergeWire rejected two frames that fold: %v", err)
		}
		got := make([]int64, ha.n)
		tau, cancelled, err := FoldWire(merged, got)
		if err != nil {
			t.Fatalf("merged frame does not fold: %v", err)
		}
		if tau != wantTau || cancelled != wantCancelled || !slices.Equal(got, want) {
			t.Fatalf("merged frame folds to tau %d cancelled %v, want tau %d cancelled %v (counts equal: %v)",
				tau, cancelled, wantTau, wantCancelled, slices.Equal(got, want))
		}
	})
}

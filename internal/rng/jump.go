package rng

import "math/bits"

// charPoly holds the coefficients of x^0..x^255 of the characteristic
// polynomial x^256 + ... of xoshiro256's state update (the update step
// applies to the state, before the ++ scrambler). The generator's period is
// 2^256-1 (Blackman and Vigna), so the polynomial is primitive and is also
// the minimal polynomial of every nonzero state's bit sequences; the tests
// re-derive it with Berlekamp–Massey from 512 bits of the stream.
var charPoly = poly{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// poly is a polynomial over GF(2) of degree below 256, bit i the
// coefficient of x^i.
type poly [4]uint64

// highPowers[j] is x^(256+j) mod charPoly: the reduction of each bit of a
// product's upper half.
var highPowers = func() (t [256]poly) {
	t[0] = charPoly // x^256 = the low terms, over GF(2)
	for j := 1; j < len(t); j++ {
		t[j] = t[j-1].timesX()
	}
	return t
}()

// timesX returns a·x mod charPoly.
func (a poly) timesX() poly {
	top := a[3] >> 63
	r := poly{a[0] << 1, a[1]<<1 | a[0]>>63, a[2]<<1 | a[1]>>63, a[3]<<1 | a[2]>>63}
	if top != 0 {
		for i := range r {
			r[i] ^= charPoly[i]
		}
	}
	return r
}

// spread moves bit i of w to bit 2i of the result: squaring over GF(2).
func spread(w uint32) uint64 {
	x := uint64(w)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// square returns a² mod charPoly.
func (a poly) square() poly {
	var r poly
	for i := range r {
		r[i] = spread(uint32(a[i/2] >> (32 * (i % 2))))
	}
	for w := 2; w < 4; w++ {
		for i := range 2 {
			for hi := spread(uint32(a[w] >> (32 * i))); hi != 0; hi &= hi - 1 {
				h := &highPowers[64*(2*(w-2)+i)+bits.TrailingZeros64(hi)]
				r[0], r[1], r[2], r[3] = r[0]^h[0], r[1]^h[1], r[2]^h[2], r[3]^h[3]
			}
		}
	}
	return r
}

// xPow returns x^k mod charPoly, by square-and-multiply from k's top bit.
func xPow(k uint64) poly {
	r := poly{1}
	for i := bits.Len64(k) - 1; i >= 0; i-- {
		r = r.square()
		if k>>i&1 != 0 {
			r = r.timesX()
		}
	}
	return r
}

// Jump advances r exactly as k Uint64 calls would, in O(log k) time and
// without drawing: with T the state update and g = x^k mod charPoly, the
// new state is g(T)·s, the XOR of T^i·s over g's terms, folded over 256
// steps. A worker that takes items [lo, hi) of a stream drawing d values
// per item jumps a generator seeded like the serial one by lo·d.
func (r *Rand) Jump(k uint64) {
	g := xPow(k)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var a0, a1, a2, a3 uint64
	for i := range 256 {
		if g[i/64]>>(i%64)&1 != 0 {
			a0, a1, a2, a3 = a0^s0, a1^s1, a2^s2, a3^s3
		}
		_, s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s = [4]uint64{a0, a1, a2, a3}
}

package rng

import (
	"testing"
)

// berlekampMassey returns the connection polynomial c (c[0] = 1) and the
// linear complexity L of the bit sequence seq: the shortest recurrence
// seq[n] = c[1]·seq[n-1] ^ ... ^ c[L]·seq[n-L].
func berlekampMassey(seq []byte) (c []byte, L int) {
	n := len(seq)
	c, b := make([]byte, n+1), make([]byte, n+1)
	c[0], b[0] = 1, 1
	m := 1
	for i := range n {
		d := seq[i]
		for j := 1; j <= L; j++ {
			d ^= c[j] & seq[i-j]
		}
		if d == 0 {
			m++
			continue
		}
		t := append([]byte(nil), c...)
		for j := 0; j+m <= n; j++ {
			c[j+m] ^= b[j]
		}
		if 2*L <= i {
			L, b, m = i+1-L, t, 1
		} else {
			m++
		}
	}
	return c, L
}

// TestCharPolyDerived re-derives charPoly from 512 state bits: the
// sequence's minimal polynomial has degree 256 (the state's size, so it is
// the characteristic polynomial of the update) and equals the constant.
func TestCharPolyDerived(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		r := NewRand(seed)
		seq := make([]byte, 512)
		for i := range seq {
			seq[i] = byte(r.s[0] & 1)
			r.Uint64()
		}
		c, L := berlekampMassey(seq)
		if L != 256 {
			t.Fatalf("seed %d: linear complexity %d, want 256", seed, L)
		}
		// The characteristic polynomial is c's reciprocal: x^L + c1·x^(L-1) + ... + cL.
		var got poly
		for j := range L {
			if c[L-j] == 1 {
				got[j/64] |= 1 << (j % 64)
			}
		}
		if got != charPoly {
			t.Fatalf("seed %d: derived polynomial %#x, want %#x", seed, got, charPoly)
		}
	}
}

// TestJumpMatchesStepping: Jump(k) lands where k Uint64 calls do.
func TestJumpMatchesStepping(t *testing.T) {
	for _, k := range []uint64{0, 1, 2, 63, 255, 256, 257, 1023, 1024, 1<<20 + 7} {
		stepped, jumped := NewRand(7), NewRand(7)
		for range k {
			stepped.Uint64()
		}
		jumped.Jump(k)
		if jumped.State() != stepped.State() {
			t.Fatalf("Jump(%d): state %#x, stepping gives %#x", k, jumped.State(), stepped.State())
		}
		if a, b := jumped.Uint64(), stepped.Uint64(); a != b {
			t.Fatalf("Jump(%d): next draw %#x, stepping gives %#x", k, a, b)
		}
	}
}

// stateMatrix is the update as a 256×256 matrix over GF(2): row i is the
// image of the i-th unit state, as four words.
type stateMatrix [256][4]uint64

func (m *stateMatrix) apply(s [4]uint64) (out [4]uint64) {
	for i := range 256 {
		if s[i/64]>>(i%64)&1 != 0 {
			for w := range out {
				out[w] ^= m[i][w]
			}
		}
	}
	return out
}

// mul returns the matrix of "apply a, then b".
func (a *stateMatrix) mul(b *stateMatrix) *stateMatrix {
	var r stateMatrix
	for i := range a {
		r[i] = b.apply(a[i])
	}
	return &r
}

// TestJumpMatchesMatrixPower checks jumps far beyond what stepping can
// reach against an independent route to k steps: the k-th power of the
// update's matrix, built by stepping the 256 unit states once.
func TestJumpMatchesMatrixPower(t *testing.T) {
	var T stateMatrix
	for i := range 256 {
		var s [4]uint64
		s[i/64] = 1 << (i % 64)
		_, T[i][0], T[i][1], T[i][2], T[i][3] = step(s[0], s[1], s[2], s[3])
	}
	pow := func(k uint64) *stateMatrix {
		var id stateMatrix
		for i := range 256 {
			id[i][i/64] = 1 << (i % 64)
		}
		r, base := &id, &T
		for ; k > 0; k >>= 1 {
			if k&1 != 0 {
				r = r.mul(base)
			}
			base = base.mul(base)
		}
		return r
	}
	src := NewRand(2024)
	for _, k := range []uint64{1<<20 + 7, src.Uint64() >> 24, 1<<40 - 1, src.Uint64()} {
		r := NewRand(99)
		want := pow(k).apply(r.State())
		r.Jump(k)
		if r.State() != want {
			t.Fatalf("Jump(%#x): state %#x, matrix power gives %#x", k, r.State(), want)
		}
	}
}

// TestJumpComposes: Jump(a) then Jump(b) is Jump(a+b).
func TestJumpComposes(t *testing.T) {
	src := NewRand(5)
	for range 20 {
		a, b := src.Uint64()>>2, src.Uint64()>>2
		r1, r2 := NewRand(11), NewRand(11)
		r1.Jump(a)
		r1.Jump(b)
		r2.Jump(a + b)
		if r1.State() != r2.State() {
			t.Fatalf("Jump(%d); Jump(%d) != Jump(%d)", a, b, a+b)
		}
	}
}

func BenchmarkJump(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		r.Jump(1<<40 + uint64(i))
	}
}

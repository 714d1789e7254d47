package epoch

import (
	"testing"

	"repro/internal/rng"
)

// TestFrameCheckpointRoundTrip: sparse and dense frames survive
// AppendFrame/ParseFrame with identical counts, tau, and representation
// behavior (a restored frame keeps accumulating with correct bookkeeping).
func TestFrameCheckpointRoundTrip(t *testing.T) {
	const n = 300
	for _, dense := range []bool{false, true} {
		sf := frameOf(t, rng.NewRand(57), n, dense)
		buf := AppendFrame(nil, sf)
		got, rest, err := ParseFrame(buf, n)
		if err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		if len(rest) != 0 {
			t.Fatalf("dense=%v: %d bytes left over", dense, len(rest))
		}
		if got.Tau != sf.Tau {
			t.Fatalf("dense=%v: tau %d vs %d", dense, got.Tau, sf.Tau)
		}
		for v := range sf.C {
			if got.C[v] != sf.C[v] {
				t.Fatalf("dense=%v: count mismatch at %d: %d vs %d", dense, v, got.C[v], sf.C[v])
			}
		}
		if got.Dense() != dense {
			t.Fatalf("dense=%v: restored frame dense=%v", dense, got.Dense())
		}
		// The restored frame's bookkeeping must still work: bump a fresh
		// vertex and reset.
		got.Bump(uint32(n - 1))
		got.Reset()
		for v := range got.C {
			if got.C[v] != 0 {
				t.Fatalf("dense=%v: reset left count at %d", dense, v)
			}
		}
	}
}

// TestFrameCheckpointTrailingData: ParseFrame consumes exactly one frame.
func TestFrameCheckpointTrailingData(t *testing.T) {
	sf := NewStateFrame(10)
	sf.Bump(3)
	sf.Tau = 1
	buf := AppendFrame(nil, sf)
	buf = append(buf, 0xAA, 0xBB)
	_, rest, err := ParseFrame(buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("trailing bytes not preserved: %v", rest)
	}
}

// TestParseFrameRejectsCorruption: truncation, length lies, vertex-range
// violations, wrong n, and negative counts all error without panicking.
func TestParseFrameRejectsCorruption(t *testing.T) {
	const n = 64
	sf := NewStateFrame(n)
	for i := 0; i < 10; i++ {
		sf.Bump(uint32(i * 5))
	}
	sf.Tau = 10
	valid := AppendFrame(nil, sf)

	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := ParseFrame(valid[:cut], n); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, _, err := ParseFrame(valid, n+1); err == nil {
		t.Error("wrong vector length accepted")
	}
	if _, _, err := ParseFrame(nil, -1); err == nil {
		t.Error("negative vector length accepted")
	}
	// Flip every byte in turn; every mutation must either parse to a
	// well-formed frame or error — never panic. (Correct-by-luck parses
	// are fine here; the outer checkpoint carries a CRC.)
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x55
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d mutation panicked: %v", i, r)
				}
			}()
			_, _, _ = ParseFrame(mut, n)
		}()
	}
}

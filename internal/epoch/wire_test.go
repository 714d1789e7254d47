package epoch

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// randomFrame fills sf with bumps distinct random vertices (with repeats in
// the counts) and a matching tau.
func randomFrame(r *rng.Rand, sf *StateFrame, bumps int) {
	n := len(sf.C)
	for i := 0; i < bumps; i++ {
		v := uint32(r.Intn(n))
		bumpN(sf, v, int64(1+r.Intn(3)))
	}
	sf.Tau += int64(bumps)
}

// frameOf returns a frame of length n filled from r that is on the path
// asked for: half a cutover of bumps keeps it sparse, six cutovers of them
// touch enough distinct vertices that it goes dense on its own.
func frameOf(t testing.TB, r *rng.Rand, n int, dense bool) *StateFrame {
	t.Helper()
	sf := NewStateFrame(n)
	bumps := DenseCutover(n) / 2
	if dense {
		bumps = 6 * DenseCutover(n)
	}
	randomFrame(r, sf, bumps)
	if sf.Dense() != dense {
		t.Fatalf("frame of %d bumps over %d vertices: dense=%v, want %v", bumps, n, sf.Dense(), dense)
	}
	return sf
}

func foldToCounts(t *testing.T, buf []byte, n int) (counts []int64, tau int64, cancelled bool) {
	t.Helper()
	counts = make([]int64, n)
	tau, cancelled, err := FoldWire(buf, counts)
	if err != nil {
		t.Fatalf("FoldWire: %v", err)
	}
	return counts, tau, cancelled
}

func assertSameState(t *testing.T, want *StateFrame, counts []int64, tau int64) {
	t.Helper()
	if tau != want.Tau {
		t.Fatalf("tau %d, want %d", tau, want.Tau)
	}
	for v := range want.C {
		if counts[v] != want.C[v] {
			t.Fatalf("C[%d] = %d, want %d", v, counts[v], want.C[v])
		}
	}
}

func TestWireRoundTripSparse(t *testing.T) {
	const n = 300
	sf := frameOf(t, rng.NewRand(1), n, false)
	buf := AppendWire(nil, sf, false)
	if buf[0]&wireFlagSparse == 0 {
		t.Fatal("small frame did not encode sparse")
	}
	counts, tau, cancelled := foldToCounts(t, buf, n)
	if cancelled {
		t.Fatal("cancelled flag set")
	}
	assertSameState(t, sf, counts, tau)
	// The sparse frame must be much smaller than the 8n dense frame.
	if len(buf) >= 8*n {
		t.Fatalf("sparse frame %d bytes, dense would be %d", len(buf), 8*n)
	}
}

func TestWireRoundTripDense(t *testing.T) {
	const n = 64
	sf := frameOf(t, rng.NewRand(2), n, true)
	buf := AppendWire(nil, sf, true)
	if buf[0]&wireFlagSparse != 0 {
		t.Fatal("frame past its cutover encoded sparse")
	}
	counts, tau, cancelled := foldToCounts(t, buf, n)
	if !cancelled {
		t.Fatal("cancelled flag lost")
	}
	assertSameState(t, sf, counts, tau)
}

func TestWireEmptyFrame(t *testing.T) {
	sf := NewStateFrame(50)
	buf := AppendWire(nil, sf, false)
	counts, tau, _ := foldToCounts(t, buf, 50)
	if tau != 0 {
		t.Fatalf("tau %d", tau)
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatal("nonzero count from empty frame")
		}
	}
}

// TestAppendEmptyWireMatchesFreshFrame: AppendEmptyWire writes the bytes
// AppendWire writes for a fresh frame, for lengths whose uvarint takes one
// to four bytes, and after whatever dst already holds.
func TestAppendEmptyWireMatchesFreshFrame(t *testing.T) {
	for _, n := range []int{0, 1, 50, 127, 128, 16383, 16384, 1 << 21} {
		want := AppendWire([]byte{0xAB}, NewStateFrame(n), false)
		if got := AppendEmptyWire([]byte{0xAB}, n); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: %x, want %x", n, got, want)
		}
	}
}

// TestWireMergeMatrix merges frames in all four sparse/dense combinations
// and checks the merge against the in-memory Add on the same data,
// including the ORed cancellation flag.
func TestWireMergeMatrix(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		name             string
		denseA, denseB   bool
		cancelA, cancelB bool
	}{
		{"sparse+sparse", false, false, false, true},
		{"sparse+dense", false, true, true, false},
		{"dense+sparse", true, false, false, false},
		{"dense+dense", true, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.NewRand(99)
			a, b := frameOf(t, r, n, tc.denseA), frameOf(t, r, n, tc.denseB)
			want := NewStateFrame(n)
			want.Add(a)
			want.Add(b)

			wa := AppendWire(nil, a, tc.cancelA)
			wb := AppendWire(nil, b, tc.cancelB)
			merged, err := MergeWire(wa, wb)
			if err != nil {
				t.Fatalf("MergeWire: %v", err)
			}
			counts, tau, cancelled := foldToCounts(t, merged, n)
			assertSameState(t, want, counts, tau)
			if cancelled != (tc.cancelA || tc.cancelB) {
				t.Fatalf("cancelled = %v, want %v", cancelled, tc.cancelA || tc.cancelB)
			}
		})
	}
}

// TestWireMergeDensifies checks that a sparse+sparse merge whose union
// passes the density cutover produces a dense frame with the right counts.
func TestWireMergeDensifies(t *testing.T) {
	const n = 256 // cutover 32
	a, b := NewStateFrame(n), NewStateFrame(n)
	cut := DenseCutover(n)
	for v := 0; v < cut; v++ {
		a.Bump(uint32(v))         // vertices 0..cut-1
		b.Bump(uint32(n - 1 - v)) // vertices n-cut..n-1, disjoint
	}
	a.Tau, b.Tau = 5, 7
	merged, err := MergeWire(AppendWire(nil, a, false), AppendWire(nil, b, false))
	if err != nil {
		t.Fatal(err)
	}
	if merged[0]&wireFlagSparse != 0 {
		t.Fatalf("union of %d vertices (cutover %d) stayed sparse", 2*cut, cut)
	}
	want := NewStateFrame(n)
	want.Add(a)
	want.Add(b)
	counts, tau, _ := foldToCounts(t, merged, n)
	assertSameState(t, want, counts, tau)
}

// TestWireMergeRandomized cross-checks tree-shaped wire merges against the
// in-memory aggregation over many random frame sets.
func TestWireMergeRandomized(t *testing.T) {
	const n = 777
	r := rng.NewRand(123)
	for trial := 0; trial < 30; trial++ {
		k := 2 + r.Intn(5)
		want := NewStateFrame(n)
		var acc []byte
		for i := 0; i < k; i++ {
			sf := NewStateFrame(n)
			randomFrame(r, sf, 1+r.Intn(3*DenseCutover(n)))
			want.Add(sf)
			wire := AppendWire(nil, sf, false)
			if acc == nil {
				acc = wire
				continue
			}
			var err error
			acc, err = MergeWire(acc, wire)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		counts, tau, _ := foldToCounts(t, acc, n)
		assertSameState(t, want, counts, tau)
	}
}

func TestWireErrors(t *testing.T) {
	sf := NewStateFrame(10)
	sf.Bump(3)
	sf.Tau = 1
	good := AppendWire(nil, sf, false)

	if _, _, err := FoldWire(nil, make([]int64, 10)); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, _, err := FoldWire(good[:3], make([]int64, 10)); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	if _, _, err := FoldWire(good, make([]int64, 5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	other := AppendWire(nil, NewStateFrame(11), false)
	if _, err := MergeWire(good, other); err == nil {
		t.Fatal("merge of mismatched lengths accepted")
	}
	// A dense header claiming n = 2^61 with an empty body: 8n wraps to 0.
	wrap := []byte{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := MergeWire(wrap, append([]byte(nil), wrap...)); err == nil {
		t.Fatal("merge of frames whose byte length wraps accepted")
	}
}

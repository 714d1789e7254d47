package epoch

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file defines the wire format of a state frame for the per-epoch MPI
// reduction, mirroring the in-memory sparse/dense split: a frame that
// touched few vertices ships as varint-encoded (vertex-delta, count) pairs,
// so reduce cost and bytes scale with what was sampled instead of with n
// (the dense classic frame is 8·n bytes per rank per epoch — on the TCP
// backend by far the dominant traffic). A frame past its density cutover
// ships dense, same as before, so huge epochs never pay the varint tax.
//
// Layout:
//
//	byte 0   flags: bit0 = sparse, bit1 = cancelled
//	uvarint  n (count-vector length; all frames of one reduction must agree)
//	8 bytes  tau, little-endian (fixed width so dense merges are in place)
//	dense:   n × 8-byte little-endian counts
//	sparse:  4-byte little-endian k (fixed width so merges can backfill it
//	         after a single streaming pass), then k × (uvarint vertex
//	         delta, uvarint count); vertices strictly ascending, first
//	         delta is the vertex itself
//
// The cancelled flag rides along with the reduction (ORed by MergeWire), so
// any rank's context cancellation reaches rank 0 within one epoch without
// extra messages.

const (
	wireFlagSparse    = 1 << 0
	wireFlagCancelled = 1 << 1
)

// uvarint is binary.Uvarint with an inlined single-byte fast path: sparse
// frames are dominated by one-byte deltas and counts, and the merge/fold
// hot loops decode two varints per pair.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// AppendWire appends the encoding of sf to dst and returns the extended
// slice. Sparse frames have their touched list sorted in place (the list's
// order carries no meaning). Pass dst[:0] of a retained buffer to avoid
// reallocation in steady-state loops.
func AppendWire(dst []byte, sf *StateFrame, cancelled bool) []byte {
	var flags byte
	if cancelled {
		flags |= wireFlagCancelled
	}
	if !sf.dense {
		flags |= wireFlagSparse
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(sf.C)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(sf.Tau))
	if sf.dense {
		for _, c := range sf.C {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
		}
		return dst
	}
	slices.Sort(sf.touched)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sf.touched)))
	prev := uint32(0)
	for i, v := range sf.touched {
		delta := uint64(v - prev)
		if i == 0 {
			delta = uint64(v)
		}
		dst = binary.AppendUvarint(dst, delta)
		dst = binary.AppendUvarint(dst, uint64(sf.C[v]))
		prev = v
	}
	return dst
}

// wireHeader is the decoded fixed part of a frame.
type wireHeader struct {
	sparse    bool
	cancelled bool
	n         int
	tau       int64
	body      []byte // counts payload (dense vector or sparse pairs)
	tauOff    int    // offset of the 8-byte tau field, for in-place rewrite
}

func parseWire(buf []byte) (wireHeader, error) {
	var h wireHeader
	if len(buf) < 1 {
		return h, fmt.Errorf("epoch: short wire frame (%d bytes)", len(buf))
	}
	flags := buf[0]
	h.sparse = flags&wireFlagSparse != 0
	h.cancelled = flags&wireFlagCancelled != 0
	n, sz := binary.Uvarint(buf[1:])
	if sz <= 0 || n > math.MaxUint32 { // vertices are 32-bit; keeps 8*n from wrapping
		return h, fmt.Errorf("epoch: corrupt wire frame length")
	}
	h.n = int(n)
	h.tauOff = 1 + sz
	if len(buf) < h.tauOff+8 {
		return h, fmt.Errorf("epoch: short wire frame header")
	}
	h.tau = int64(binary.LittleEndian.Uint64(buf[h.tauOff:]))
	h.body = buf[h.tauOff+8:]
	if !h.sparse && len(h.body) != 8*h.n {
		return h, fmt.Errorf("epoch: dense wire frame body %d bytes, want %d", len(h.body), 8*h.n)
	}
	return h, nil
}

// pairCount reads a sparse body's fixed-width pair count, which must fit
// the body (a pair takes at least two bytes): MergeWire densifies on the
// claim, so an unchecked one would size an allocation of 8·n bytes from a
// frame of a few bytes.
func (h wireHeader) pairCount() (uint32, error) {
	if len(h.body) < 4 {
		return 0, fmt.Errorf("epoch: corrupt sparse pair count")
	}
	k := binary.LittleEndian.Uint32(h.body)
	if uint64(k) > uint64(len(h.body)-4)/2 {
		return 0, fmt.Errorf("epoch: sparse pair count %d exceeds its %d-byte body", k, len(h.body)-4)
	}
	return k, nil
}

// forEachPair decodes the sparse pair stream, invoking fn(vertex, count).
// It is a loop over pairStream, the single decoder of the pair format.
func (h wireHeader) forEachPair(fn func(v uint32, c int64)) error {
	s := newPairStream(h)
	for s.ok {
		fn(s.v, s.c)
		if err := s.next(); err != nil {
			return err
		}
	}
	return s.err
}

// FoldWire decodes a wire frame and adds its counts into counts (length n),
// returning the frame's tau and cancellation flag. Folding a sparse frame
// costs O(pairs); a dense frame O(n).
func FoldWire(buf []byte, counts []int64) (tau int64, cancelled bool, err error) {
	h, err := parseWire(buf)
	if err != nil {
		return 0, false, err
	}
	if h.n != len(counts) {
		return 0, false, fmt.Errorf("epoch: wire frame length %d vs state %d", h.n, len(counts))
	}
	if h.sparse {
		if err := h.forEachPair(func(v uint32, c int64) { counts[v] += c }); err != nil {
			return 0, false, err
		}
		return h.tau, h.cancelled, nil
	}
	for i := range counts {
		counts[i] += int64(binary.LittleEndian.Uint64(h.body[8*i:]))
	}
	return h.tau, h.cancelled, nil
}

// FoldWire decodes a wire frame into sf — tau and counts both, through the
// frame's own mutators, so an accumulator frame (the global state S at
// world rank 0) keeps its touched list and dense cut-over consistent and
// stays serializable with AppendFrame. It returns the frame's cancellation
// flag; cost as for the package-level FoldWire.
func (sf *StateFrame) FoldWire(buf []byte) (cancelled bool, err error) {
	h, err := parseWire(buf)
	if err != nil {
		return false, err
	}
	if h.n != len(sf.C) {
		return false, fmt.Errorf("epoch: wire frame length %d vs state %d", h.n, len(sf.C))
	}
	if h.sparse {
		if err := h.forEachPair(sf.addCount); err != nil {
			return false, err
		}
	} else {
		for i := range sf.C {
			sf.addCount(uint32(i), int64(binary.LittleEndian.Uint64(h.body[8*i:])))
		}
	}
	sf.Tau += h.tau
	return h.cancelled, nil
}

// MergeWire combines two wire frames (summing tau and counts, ORing the
// cancellation flags) and returns the merged encoding. It is the reduction
// operator passed to mpi.ReduceMerge: either input may be mutated and
// returned. Dense⊕any merges in place into the dense buffer; sparse⊕sparse
// performs a linear merge of the sorted pair streams and densifies when the
// union passes DenseCutover(n), so reduction trees behave exactly like the
// in-memory frames.
func MergeWire(a, b []byte) ([]byte, error) {
	ha, err := parseWire(a)
	if err != nil {
		return nil, err
	}
	hb, err := parseWire(b)
	if err != nil {
		return nil, err
	}
	if ha.n != hb.n {
		return nil, fmt.Errorf("epoch: merging wire frames of length %d vs %d", ha.n, hb.n)
	}
	// Fold the sparse (or second dense) frame into a dense one in place.
	if !ha.sparse {
		return mergeIntoDense(a, ha, hb)
	}
	if !hb.sparse {
		return mergeIntoDense(b, hb, ha)
	}

	// Sparse ⊕ sparse: single streaming merge pass of the two sorted pair
	// streams, no intermediate pair slices; the fixed-width pair count is
	// backfilled afterwards. Densification (union past the cutover) is
	// decided up front when the input sizes already force it, and otherwise
	// detected after the pass — the sparse emit is then discarded, which
	// only happens in the narrow band around the cutover.
	tau := ha.tau + hb.tau
	cancelled := ha.cancelled || hb.cancelled
	var flags byte
	if cancelled {
		flags |= wireFlagCancelled
	}
	densify := func() ([]byte, error) {
		out := make([]byte, 0, 1+binary.MaxVarintLen64+8+8*ha.n)
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(ha.n))
		out = binary.LittleEndian.AppendUint64(out, uint64(tau))
		base := len(out)
		out = append(out, make([]byte, 8*ha.n)...)
		fill := func(h wireHeader) error {
			return h.forEachPair(func(v uint32, c int64) {
				off := base + 8*int(v)
				cur := int64(binary.LittleEndian.Uint64(out[off:]))
				binary.LittleEndian.PutUint64(out[off:], uint64(cur+c))
			})
		}
		if err := fill(ha); err != nil {
			return nil, err
		}
		if err := fill(hb); err != nil {
			return nil, err
		}
		return out, nil
	}

	cutover := DenseCutover(ha.n)
	ka, err := ha.pairCount()
	if err != nil {
		return nil, err
	}
	kb, err := hb.pairCount()
	if err != nil {
		return nil, err
	}
	// The union has at least max(ka, kb) pairs: densify without merging.
	if int(ka) > cutover || int(kb) > cutover {
		return densify()
	}

	out := make([]byte, 0, len(a)+len(b))
	out = append(out, flags|wireFlagSparse)
	out = binary.AppendUvarint(out, uint64(ha.n))
	out = binary.LittleEndian.AppendUint64(out, uint64(tau))
	kOff := len(out)
	out = append(out, 0, 0, 0, 0)
	sa, sb := newPairStream(ha), newPairStream(hb)
	if sa.err != nil {
		return nil, sa.err
	}
	if sb.err != nil {
		return nil, sb.err
	}
	prevOut := uint32(0)
	first := true
	k := 0
	emit := func(v uint32, c int64) {
		delta := uint64(v - prevOut)
		if first {
			delta = uint64(v)
			first = false
		}
		out = binary.AppendUvarint(out, delta)
		out = binary.AppendUvarint(out, uint64(c))
		prevOut = v
		k++
	}
	for sa.ok || sb.ok {
		switch {
		case !sb.ok || (sa.ok && sa.v < sb.v):
			emit(sa.v, sa.c)
			err = sa.next()
		case !sa.ok || sb.v < sa.v:
			emit(sb.v, sb.c)
			err = sb.next()
		default:
			emit(sa.v, sa.c+sb.c)
			if err = sa.next(); err == nil {
				err = sb.next()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if k > cutover {
		return densify()
	}
	binary.LittleEndian.PutUint32(out[kOff:], uint32(k))
	return out, nil
}

// pairStream decodes a sparse body one (vertex, count) pair at a time; it
// is the only decoder of the pair format (forEachPair loops over it).
type pairStream struct {
	body []byte
	left uint64
	n    int // vector length, for the vertex range check
	v    uint32
	c    int64
	ok   bool
	err  error
}

func newPairStream(h wireHeader) *pairStream {
	s := &pairStream{n: h.n}
	k, err := h.pairCount()
	if err != nil {
		s.err = err
		return s
	}
	s.body = h.body[4:]
	s.left = uint64(k)
	s.err = s.next()
	return s
}

// next advances to the following pair; s.ok reports whether one is loaded.
func (s *pairStream) next() error {
	if s.err != nil {
		return s.err
	}
	if s.left == 0 {
		s.ok = false
		return nil
	}
	delta, sz := uvarint(s.body)
	if sz <= 0 {
		s.err = fmt.Errorf("epoch: corrupt sparse vertex delta")
		return s.err
	}
	s.body = s.body[sz:]
	c, sz := uvarint(s.body)
	if sz <= 0 {
		s.err = fmt.Errorf("epoch: corrupt sparse count")
		return s.err
	}
	s.body = s.body[sz:]
	if uint64(s.v)+delta >= uint64(s.n) {
		s.err = fmt.Errorf("epoch: sparse vertex %d out of range [0,%d)", uint64(s.v)+delta, s.n)
		return s.err
	}
	s.v += uint32(delta)
	s.c = int64(c)
	s.left--
	s.ok = true
	return nil
}

// mergeIntoDense folds src into the dense frame dst (parsed as hd) in
// place: counts sum into the fixed-width vector, tau is rewritten, and the
// cancellation flags are ORed.
func mergeIntoDense(dst []byte, hd, src wireHeader) ([]byte, error) {
	if src.sparse {
		err := src.forEachPair(func(v uint32, c int64) {
			off := 8 * int(v)
			cur := int64(binary.LittleEndian.Uint64(hd.body[off:]))
			binary.LittleEndian.PutUint64(hd.body[off:], uint64(cur+c))
		})
		if err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < hd.n; i++ {
			cur := int64(binary.LittleEndian.Uint64(hd.body[8*i:]))
			cur += int64(binary.LittleEndian.Uint64(src.body[8*i:]))
			binary.LittleEndian.PutUint64(hd.body[8*i:], uint64(cur))
		}
	}
	binary.LittleEndian.PutUint64(dst[hd.tauOff:], uint64(hd.tau+src.tau))
	if src.cancelled {
		dst[0] |= wireFlagCancelled
	}
	return dst, nil
}

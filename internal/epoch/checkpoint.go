package epoch

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint serialization of state frames, for the anytime estimation
// sessions: a frame written with AppendFrame and read back with ParseFrame
// reproduces the accumulated sampling state (tau and the count vector)
// exactly, so a run can resume across process restarts. The encoding reuses
// the per-epoch reduce wire format (wire.go) — sparse frames serialize as
// their touched pairs, dense frames as the full vector — wrapped in a
// fixed-width length prefix so checkpoints are self-delimiting inside a
// larger stream.
//
// ParseFrame is the untrusted-input half: checkpoints may be truncated,
// bit-flipped, or produced by a different version, so every length, vertex,
// and count is validated against the expected vector length before any use,
// and a malformed input always yields an error, never a panic or an
// unbounded allocation.

// maxFrameWireLen bounds one serialized frame: the dense encoding is the
// largest legitimate layout (header + 8n), with slack for varint headers.
func maxFrameWireLen(n int) int { return 8*n + 64 }

// AppendFrame appends a self-delimiting encoding of sf to dst and returns
// the extended slice. Sparse frames have their touched list sorted in place
// (the order carries no meaning).
func AppendFrame(dst []byte, sf *StateFrame) []byte {
	wire := AppendWire(nil, sf, false)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(wire)))
	return append(dst, wire...)
}

// ParseFrame decodes one AppendFrame encoding from the front of buf,
// expecting a count vector of length n, and returns the reconstructed frame
// plus the remaining bytes. Either encoding is replayed through the frame's
// own bookkeeping, so the restored frame cuts over to dense exactly where a
// frame accumulated in-process would.
func ParseFrame(buf []byte, n int) (*StateFrame, []byte, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("epoch: negative frame length %d", n)
	}
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("epoch: truncated frame prefix (%d bytes)", len(buf))
	}
	l := int(binary.LittleEndian.Uint32(buf))
	if l > len(buf)-4 || l > maxFrameWireLen(n) {
		return nil, nil, fmt.Errorf("epoch: frame length %d exceeds payload", l)
	}
	wire, rest := buf[4:4+l], buf[4+l:]
	h, err := parseWire(wire)
	if err != nil {
		return nil, nil, err
	}
	if h.n != n {
		return nil, nil, fmt.Errorf("epoch: checkpoint frame length %d, want %d", h.n, n)
	}
	if h.tau < 0 {
		return nil, nil, fmt.Errorf("epoch: negative tau %d in checkpoint frame", h.tau)
	}
	sf := NewStateFrame(n)
	if h.sparse {
		var bad error
		err := h.forEachPair(func(v uint32, c int64) {
			if (c <= 0 || sf.C[v] != 0) && bad == nil {
				bad = fmt.Errorf("epoch: non-positive count %d or repeated vertex %d in sparse checkpoint frame", c, v)
			}
			if bad == nil {
				sf.AddCount(v, c)
			}
		})
		if err == nil {
			err = bad
		}
		if err != nil {
			return nil, nil, err
		}
	} else {
		for i := 0; i < n; i++ {
			c := int64(binary.LittleEndian.Uint64(h.body[8*i:]))
			if c < 0 {
				return nil, nil, fmt.Errorf("epoch: negative count %d at vertex %d in dense checkpoint frame", c, i)
			}
			sf.AddCount(uint32(i), c)
		}
	}
	sf.Tau = h.tau
	return sf, rest, nil
}

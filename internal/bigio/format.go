package bigio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/graph"
)

// BCSR v2 on-disk layout. The file is a fixed header page followed by
// page-aligned sections; all integers are little-endian.
//
//	offset  size  field
//	     0     8  magic ("BCSR" tag << 32 | version 2; graph.BCSRMagic(2))
//	     8     8  numNodes (n)
//	    16     8  numAdj (directed adjacency entries = 2*edges)
//	    24     8  flags, must be zero
//	    32     8  offsets section file offset
//	    40     8  offsets section byte length ((n+1) * 8)
//	    48     8  adjacency section file offset
//	    56     8  adjacency section byte length (numAdj * 4)
//	    64    28  reserved, must be zero
//	    92     4  CRC-32 (IEEE) of header bytes [0, 92)
//
// Every section offset is a multiple of pageSize and sections appear in
// header order without overlap. The offsets section holds (n+1) uint64
// CSR offsets and the adjacency section numAdj uint32 vertex IDs.
//
// Flag bit 0 marks the removed compressed variant (varint adjacency, a
// block index in bytes 64-87); parseHeader refuses it with the re-convert
// fix rather than as an unknown flag.

const (
	// headerSize is the byte length of the fixed BCSR v2 header.
	headerSize = 96
	// pageSize is the section alignment. 4096 matches the page size of
	// every platform we map on, which is what makes the in-place
	// []uint64 / []uint32 reinterpretation of mapped sections aligned.
	pageSize = 4096

	// maxPlausible bounds node and adjacency counts (2^40 ≈ 10^12), the
	// same sanity ceiling ReadBinary applies: large enough for any real
	// graph, small enough that a corrupt header cannot demand an
	// exabyte allocation.
	maxPlausible = uint64(1) << 40
)

// magic2 is the BCSR v2 magic word.
var magic2 = graph.BCSRMagic(2)

// FormatError reports a structurally invalid BCSR v2 file. Version skew
// (a well-formed file of another BCSR version) is reported as
// *graph.BCSRVersionError instead, so callers can tell "wrong version"
// from "corrupt".
type FormatError struct {
	Path   string // file path when known, "" for stream/byte inputs
	Detail string
}

func (e *FormatError) Error() string {
	if e.Path == "" {
		return "bigio: invalid BCSR v2: " + e.Detail
	}
	return "bigio: " + e.Path + ": invalid BCSR v2: " + e.Detail
}

// header is the parsed fixed header.
type header struct {
	numNodes uint64
	numAdj   uint64
	offOff   uint64 // offsets section
	offLen   uint64
	adjOff   uint64 // adjacency section
	adjLen   uint64
}

// marshal encodes h into a headerSize-byte slice, computing the CRC.
func (h *header) marshal() []byte {
	buf := make([]byte, headerSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], magic2)
	le.PutUint64(buf[8:], h.numNodes)
	le.PutUint64(buf[16:], h.numAdj)
	le.PutUint64(buf[32:], h.offOff)
	le.PutUint64(buf[40:], h.offLen)
	le.PutUint64(buf[48:], h.adjOff)
	le.PutUint64(buf[56:], h.adjLen)
	// buf[24:32] (flags) and buf[64:92] (reserved) stay zero.
	le.PutUint32(buf[92:], crc32.ChecksumIEEE(buf[:92]))
	return buf
}

// parseHeader decodes and validates the fixed header against the file
// size. It checks, in order: length, magic (reporting version skew as
// *graph.BCSRVersionError), CRC, flags and reserved bytes, plausibility of
// counts, and that both sections lie page-aligned and in-bounds with
// exactly the length their contents require.
func parseHeader(buf []byte, fileSize int64) (*header, error) {
	if len(buf) < headerSize {
		return nil, &FormatError{Detail: fmt.Sprintf("file too short for header: %d bytes", len(buf))}
	}
	le := binary.LittleEndian
	word := le.Uint64(buf[0:])
	if word != magic2 {
		if uint32(word>>32) == uint32(magic2>>32) {
			return nil, &graph.BCSRVersionError{
				Version: word & 0xffffffff,
				Hint:    "the mapped loader reads v2 only; convert v1 to v2 with graphconv",
			}
		}
		return nil, &FormatError{Detail: fmt.Sprintf("bad magic %#x", word)}
	}
	if got, want := crc32.ChecksumIEEE(buf[:92]), le.Uint32(buf[92:]); got != want {
		return nil, &FormatError{Detail: fmt.Sprintf("header CRC mismatch: computed %#x, stored %#x", got, want)}
	}
	if flags := le.Uint64(buf[24:]); flags&1 != 0 {
		return nil, &FormatError{Detail: "compressed adjacency is no longer supported; re-convert the source graph with graphconv"}
	} else if flags != 0 {
		return nil, &FormatError{Detail: fmt.Sprintf("unknown flag bits %#x", flags)}
	}
	if slices.ContainsFunc(buf[64:92], func(b byte) bool { return b != 0 }) {
		return nil, &FormatError{Detail: "reserved header bytes not zero"}
	}
	h := &header{
		numNodes: le.Uint64(buf[8:]),
		numAdj:   le.Uint64(buf[16:]),
		offOff:   le.Uint64(buf[32:]),
		offLen:   le.Uint64(buf[40:]),
		adjOff:   le.Uint64(buf[48:]),
		adjLen:   le.Uint64(buf[56:]),
	}
	if h.numNodes > maxPlausible || h.numAdj > maxPlausible {
		return nil, &FormatError{Detail: fmt.Sprintf("implausible sizes n=%d adj=%d", h.numNodes, h.numAdj)}
	}

	size := uint64(fileSize)
	section := func(name string, off, length, want uint64) error {
		if off%pageSize != 0 {
			return &FormatError{Detail: fmt.Sprintf("%s section offset %d not page-aligned", name, off)}
		}
		if off < headerSize && length > 0 {
			return &FormatError{Detail: fmt.Sprintf("%s section overlaps header", name)}
		}
		if off > size || length > size-off {
			return &FormatError{Detail: fmt.Sprintf("%s section [%d, +%d) exceeds file size %d", name, off, length, size)}
		}
		if length != want {
			return &FormatError{Detail: fmt.Sprintf("%s section length %d, want %d", name, length, want)}
		}
		return nil
	}

	if err := section("offsets", h.offOff, h.offLen, (h.numNodes+1)*8); err != nil {
		return nil, err
	}
	if err := section("adjacency", h.adjOff, h.adjLen, h.numAdj*4); err != nil {
		return nil, err
	}
	return h, nil
}

// layout computes the section placement for a file with the given shape,
// filling in the offset/length fields of h. Sections follow the header in
// order, each rounded up to the next page boundary. It returns the total
// file size.
func (h *header) layout() uint64 {
	pos := uint64(pageSize) // header occupies page 0
	h.offOff = pos
	h.offLen = (h.numNodes + 1) * 8
	pos = pageCeil(pos + h.offLen)
	h.adjOff = pos
	h.adjLen = h.numAdj * 4
	return pageCeil(pos + h.adjLen)
}

func pageCeil(n uint64) uint64 {
	return (n + pageSize - 1) &^ uint64(pageSize-1)
}

// Package bigio is the out-of-core ingest subsystem: the BCSR v2 on-disk
// graph format, the mmap-backed loader that opens it in O(1), and the
// streaming edge-list converter that builds it in bounded memory. It is
// the rung the ROADMAP names between the in-RAM harness (~150k-vertex
// synthetic graphs) and the paper's headline billion-edge scale: every
// sampler already shares one immutable CSR with zero synchronization, so
// the only thing standing between the engines and a huge graph is getting
// that CSR on and off disk without ever holding it twice.
//
// # BCSR v2
//
// BCSR v2 is a section-based, page-aligned binary CSR (format.go):
//
//   - a fixed 96-byte header — magic word ("BCSR" tag + version 2),
//     vertex/adjacency counts, per-section {offset, length} pairs, and a
//     CRC-32 over the header bytes so a torn or bit-rotted header errors
//     instead of mapping garbage;
//   - an offsets section of (n+1) little-endian 64-bit values;
//   - an adjacency section of 2m little-endian 32-bit vertex IDs.
//
// There is one layout, served straight from the mapping. A file with flag
// bit 0 set, the removed compressed variant whose adjacency had to be
// decoded onto the heap at open, is refused with a FormatError that says
// to re-convert the source with graphconv.
//
// Every section starts on a 4096-byte page boundary. That is what makes
// the zero-copy open sound: the mmap base is page-aligned, so the offsets
// section is 8-byte aligned and the adjacency section 4-byte aligned, and
// both can be reinterpreted in place as []uint64 / []uint32 without
// copying a byte into the Go heap.
//
// # Mapped graphs
//
// Open maps a BCSR v2 file and serves a *graph.Graph whose Offsets/Adj
// slices alias the mapping directly. The Mapped handle owns the mapping: Close unmaps it, and a runtime
// cleanup unmaps it when the handle and its Graph become unreachable, so
// a forgotten Close leaks nothing. The returned Graph keeps the handle
// alive (it points into it); the mapped slices must be treated as strictly
// read-only and never grown — the mmapsafe repolint analyzer enforces that
// unsafe/mmap stay confined to this package and that mapped adjacency
// never escapes into append/copy-grow sites outside it.
//
// # Streaming conversion
//
// Converter builds a BCSR v2 file from an edge stream without ever
// holding the edge list in RAM: edges are packed into a bounded sort
// buffer (the -mem budget), radix-sorted with the in-memory Builder's
// sort (graph.SortKeys), spilled as runs, and k-way merged
// (multi-pass when the fan-in would exceed MaxFanIn) straight into the
// output sections; duplicate edges and self loops drop out of the merge
// exactly as the in-memory Builder drops them, so the converter's output
// is bit-identical to Builder output on the same edge list. The file is
// written tmp -> fsync -> rename -> dir-fsync (the internal/server
// writeAtomic discipline), so a crash mid-conversion never leaves a torn
// output in place. Peak memory is the sort buffer and its sort scratch
// plus O(V) bookkeeping (the dense-ID table for text inputs and one
// offsets array), independent of the edge count.
package bigio

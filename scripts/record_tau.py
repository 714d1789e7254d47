#!/usr/bin/env python3
"""Print tau from a betweennessd session record.

Usage: python3 scripts/record_tau.py sessions/<id>.bck

The record is the "BCDS" daemon section (magic, u16 version, u32 length,
JSON, CRC-32), then the state: the BCSE envelope of
betweenness.Checkpoint around the kadabra v2 payload. Every layout field
the parse relies on is checked (both magics, all three versions, both
CRCs, the frame's vertex count against the payload's), so a layout change
fails here loudly rather than yielding a wrong tau. A record without a
state (a session that has not sampled, or has not been captured yet)
fails too. scripts/crash_smoke.sh and scripts/server_smoke.sh read the
daemon's records through it.
"""
import struct, sys, zlib
b = open(sys.argv[1], "rb").read()
def fail(why):
    sys.exit("record %s: %s" % (sys.argv[1], why))
if len(b) < 14 or b[:4] != b"BCDS":
    fail("not a session record")
if struct.unpack_from("<H", b, 4)[0] != 1:
    fail("record version is not 1")
end = 10 + struct.unpack_from("<I", b, 6)[0]
if end + 4 > len(b):
    fail("section length out of range")
if zlib.crc32(b[:end]) != struct.unpack_from("<I", b, end)[0]:
    fail("section CRC mismatch")
b = b[end + 4:]
if not b:
    fail("no state yet")
if len(b) < 12 or b[:4] != b"BCSE":
    fail("not a BCSE envelope")
if zlib.crc32(b[:-4]) != struct.unpack("<I", b[-4:])[0]:
    fail("CRC mismatch")
if struct.unpack_from("<H", b, 4)[0] != 1:
    fail("envelope version is not 1")
# kadabra payload v2: version, engine, threads, procs, top-k, eps, delta,
# seed, start factor, (u32), epoch base, epoch skew, (u8), vertex diameter,
# n, next check, epochs, calibrated, converged.
head = "<HBIIIddQIIddBIIQIBB"
f = struct.unpack_from(head, b, 8)
if f[0] != 2:
    fail("payload version is not 2")
n = f[14]
p = 8 + struct.calcsize(head)
streams = struct.unpack_from("<I", b, p)[0]
p += 4 + 32 * streams + 4 + 1  # streams, frame length prefix, frame flags
fn, shift = 0, 0
while True:
    c = b[p]
    p += 1
    fn |= (c & 0x7F) << shift
    shift += 7
    if c < 0x80:
        break
if fn != n:
    fail("frame holds %d vertices, payload says %d" % (fn, n))
print(struct.unpack_from("<q", b, p)[0])

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
daemon's records through it; crash_smoke.sh imports read_record, which
returns the section (a dict) and the tau (None while there is no state).
"""
import json, struct, sys, zlib


class RecordError(Exception):
    pass


def read_record(path):
    """Returns (section, tau) of the record at path; tau is None when the
    record holds no state. Raises RecordError on any layout mismatch."""
    b = open(path, "rb").read()

    def fail(why):
        raise RecordError("record %s: %s" % (path, why))

    if len(b) < 14 or b[:4] != b"BCDS":
        fail("not a session record")
    if struct.unpack_from("<H", b, 4)[0] != 1:
        fail("record version is not 1")
    end = 10 + struct.unpack_from("<I", b, 6)[0]
    if end + 4 > len(b):
        fail("section length out of range")
    if zlib.crc32(b[:end]) != struct.unpack_from("<I", b, end)[0]:
        fail("section CRC mismatch")
    section = json.loads(b[10:end])
    b = b[end + 4:]
    if not b:
        return section, None
    if len(b) < 12 or b[:4] != b"BCSE":
        fail("not a BCSE envelope")
    if zlib.crc32(b[:-4]) != struct.unpack("<I", b[-4:])[0]:
        fail("CRC mismatch")
    if struct.unpack_from("<H", b, 4)[0] != 1:
        fail("envelope version is not 1")
    # kadabra payload v2: version, engine, threads, procs, top-k, eps, delta,
    # seed, start factor, (u32), epoch base, epoch skew, (u8), vertex
    # diameter, n, next check, epochs, calibrated, converged.
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
    return section, struct.unpack_from("<q", b, p)[0]


if __name__ == "__main__":
    try:
        _, tau = read_record(sys.argv[1])
    except RecordError as e:
        sys.exit(str(e))
    if tau is None:
        sys.exit("record %s: no state yet" % sys.argv[1])
    print(tau)

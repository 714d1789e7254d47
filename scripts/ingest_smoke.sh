#!/usr/bin/env bash
# Billion-edge ingest smoke: the PR 10 acceptance criteria as a black-box
# pipeline over the real binaries.
#
#   1. graphgen -stream generates an ~100M-edge RMAT graph straight into
#      a BCSR v2 file through the out-of-core converter (-connect adds a
#      spanning binary tree, edges (i, (i-1)/2), so the graph is one
#      component, the downstream largest-component step is the no-copy
#      identity, and the diameter stays at most 2·log2 n). The generator's
#      heap is asserted against the -mem sort budget: converter memory
#      must be bounded by -mem (plus the parallel R-MAT stream's few
#      chunk buffers), not by the edge count.
#   2. graphinfo -quick opens the file by mmap and must report an open
#      latency under SMOKE_OPEN_MS_MAX (default 100ms) with zero-copy
#      adjacency — the O(1) open criterion.
#   3. bcapprox runs a budgeted estimate on the mapped graph. Its vertex
#      diameter must be at most 2·log2 n, the small-world side of the
#      kernel choice, so the bidirectional BFS and its hub matrix run.
#      Its Go heap (heap-sys) must stay under SMOKE_HEAP_MIB_MAX, by
#      default derived from the state a one-thread sequential estimate
#      holds on n vertices and m edges (bytes):
#        sampler     32n         one bfs.Sampler record per vertex
#        hub matrix  4n + K²/8   bfs.Hubs, K = ⌊√(8m)⌋
#        estimator   84n         five count frames of 8n (the accumulated
#                                state, the epoch driver's two, the epoch
#                                loop's and calibration's), the calibration
#                                (failure budgets 16n, their logs 16n,
#                                sweep order 4n) and the estimates (8n)
#      plus half a heap copy of the adjacency, (8(n+1) + 8m)/2, for the
#      diameter phase's transient BFS arrays and the collector's headroom.
#      A regression that quietly rematerializes the graph adds a whole
#      copy and trips it. The kernel-side peak (rss-peak) is bounded too,
#      more loosely, since it legitimately includes the page-cache-backed
#      mapped pages the BFS touches.
#
# Usage: scripts/ingest_smoke.sh
# Environment (all optional):
#   SMOKE_SCALE / SMOKE_EF    RMAT size (default 23 / 13: ~100M edges)
#   SMOKE_MEM                 converter sort budget (default 256MiB)
#   SMOKE_MIN_EDGES           generated-edge floor (default 95000000)
#   SMOKE_OPEN_MS_MAX         mmap open latency bound (default 100)
#   SMOKE_GEN_HEAP_MIB_MAX    graphgen heap-sys bound (default 1024)
#   SMOKE_HEAP_MIB_MAX        bcapprox heap-sys bound (default: derived
#                             from n and m as in step 3)
#   SMOKE_RSS_MIB_MAX         bcapprox rss-peak bound (default 4096)
#   SMOKE_SAMPLES             bcapprox sample budget (default 32)
#   SMOKE_DIR                 scratch dir (default mktemp -d; NOT cleaned
#                             up when set explicitly, for post-mortems)
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${SMOKE_SCALE:-23}"
ef="${SMOKE_EF:-13}"
mem="${SMOKE_MEM:-256MiB}"
min_edges="${SMOKE_MIN_EDGES:-95000000}"
open_ms_max="${SMOKE_OPEN_MS_MAX:-100}"
gen_heap_max="${SMOKE_GEN_HEAP_MIB_MAX:-1024}"
rss_max="${SMOKE_RSS_MIB_MAX:-4096}"
samples="${SMOKE_SAMPLES:-32}"

if [ -n "${SMOKE_DIR:-}" ]; then
    work="$SMOKE_DIR"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
big="$work/big.bcsr"

echo "== build =="
go build -o "$work/graphgen" ./cmd/graphgen
go build -o "$work/graphinfo" ./cmd/graphinfo
go build -o "$work/bcapprox" ./cmd/bcapprox

# mem_mib FILE KEY: extract a memprof line ("mem KEY: 123.4 MiB") as an
# integer MiB value.
mem_mib() {
    awk -v key="$2" '$1 == "mem" && $2 == key":" { printf "%d", $3 }' "$1"
}

# assert_le LABEL VALUE BOUND (a missing or non-integer VALUE fails)
assert_le() {
    case "$2" in
    '' | *[!0-9]*)
        echo "FAIL: $1 = '$2' is not a count" >&2
        exit 1
        ;;
    esac
    if [ "$2" -gt "$3" ]; then
        echo "FAIL: $1 = $2 exceeds bound $3" >&2
        exit 1
    fi
    echo "ok: $1 = $2 (bound $3)"
}

echo "== 1. stream-generate rmat scale=$scale ef=$ef through the converter (mem=$mem) =="
"$work/graphgen" -stream -kind rmat -scale "$scale" -ef "$ef" -connect \
    -o "$big" -mem "$mem" -memstats | tee "$work/gen.out"

edges="$(awk -F'[ ,]+' '/^converted:/ { print $4 }' "$work/gen.out")"
if [ -z "$edges" ] || [ "$edges" -lt "$min_edges" ]; then
    echo "FAIL: generated ${edges:-0} edges, want >= $min_edges" >&2
    exit 1
fi
echo "ok: $edges edges (floor $min_edges)"
assert_le "graphgen heap-sys MiB (converter bounded by -mem)" \
    "$(mem_mib "$work/gen.out" heap-sys)" "$gen_heap_max"

echo "== 2. mmap open latency and zero-copy =="
"$work/graphinfo" -graph "$big" -quick | tee "$work/info.out"

grep -q "zero-copy: true" "$work/info.out" || {
    echo "FAIL: adjacency is not served zero-copy from the mapping" >&2
    exit 1
}
# "opened in: 12.345ms (mmap)" -> integer milliseconds (rounded up so a
# microsecond open asserts as 1ms, never 0).
open_ms="$(awk '/^opened in:/ {
    v = $3
    if      (sub(/µs$/, "", v)) v /= 1000
    else if (sub(/ms$/, "", v)) v += 0
    else if (sub(/s$/, "", v))  v *= 1000
    printf "%d", (v == int(v)) ? v : int(v) + 1
}' "$work/info.out")"
if [ -z "$open_ms" ]; then
    echo "FAIL: no open latency in graphinfo output" >&2
    exit 1
fi
assert_le "mmap open ms" "$open_ms" "$open_ms_max"

echo "== 3. budgeted estimate off the mapping (max-samples=$samples) =="
"$work/bcapprox" -graph "$big" -backend seq -threads 1 \
    -max-samples "$samples" -eps 0.05 -top 5 -memstats | tee "$work/est.out"

assert_le "vertex diameter (2·log2 n: the bidirectional kernel runs)" \
    "$(sed -n 's/.*vertex-diameter=\([0-9]*\).*/\1/p' "$work/est.out")" "$((2 * scale))"
heap_max="${SMOKE_HEAP_MIB_MAX:-$(awk -v n=$((1 << scale)) -v m="$edges" 'BEGIN {
    k = int(sqrt(8 * m)); while (k * k > 8 * m) k--
    state = 32 * n + 4 * n + k * k / 8 + 84 * n
    adjacency = 8 * (n + 1) + 8 * m
    printf "%d", (state + adjacency / 2) / 1048576
}')}"

assert_le "bcapprox heap-sys MiB (no adjacency heap copy)" \
    "$(mem_mib "$work/est.out" heap-sys)" "$heap_max"
assert_le "bcapprox rss-peak MiB" \
    "$(mem_mib "$work/est.out" rss-peak)" "$rss_max"

echo "ingest smoke: all checks passed ($edges edges, open ${open_ms}ms)"

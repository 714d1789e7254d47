#!/usr/bin/env bash
# End-to-end smoke test for betweennessd, driven against the real binary
# over HTTP (curl + python3 only — no jq dependency):
#
#   1. build the daemon, generate a graph, start on a random port
#   2. upload the graph (format sniffed server-side, no flags)
#   3. run one session to convergence and read its top-k result
#   4. start a long (tight-epsilon) session, SIGTERM the daemon mid-run,
#      and assert the drain put its state in the session's record
#   5. restart on the same data directory, assert the session resumed
#      at exactly the drained tau, run it to convergence
#   6. refine the session to a tighter epsilon and assert tau grew
#      (refine reuses samples, never resets)
#   7. repeat the step-3 query in a fresh session and assert it is
#      served from the result cache
#
# Usage: scripts/server_smoke.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d)}"
mkdir -p "$work"
data="$work/data"
log="$work/betweennessd.log"
pidfile="$work/betweennessd.pid"

cleanup() {
    if [ -f "$pidfile" ]; then
        kill "$(cat "$pidfile")" 2>/dev/null || true
    fi
}
trap cleanup EXIT

echo "== build"
go build -o "$work/betweennessd" ./cmd/betweennessd
go build -o "$work/graphgen" ./cmd/graphgen

echo "== generate graph"
"$work/graphgen" -kind rmat -scale 10 -ef 8 -o "$work/g.txt" >/dev/null

# Random loopback port; retry if it races with another process.
pick_port() { python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()'; }
port="$(pick_port)"
base="http://127.0.0.1:$port"

start_daemon() {
    "$work/betweennessd" -addr "127.0.0.1:$port" -data "$data" -max-runs 2 >>"$log" 2>&1 &
    echo $! > "$pidfile"
    for _ in $(seq 1 100); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "daemon did not come up; log:" >&2
    cat "$log" >&2
    return 1
}

# jget FILE KEY... -> prints the (possibly nested) JSON field
jget() {
    python3 - "$@" <<'EOF'
import json, sys
v = json.load(open(sys.argv[1]))
for k in sys.argv[2:]:
    v = v[int(k)] if isinstance(v, list) else v[k]
print(json.dumps(v) if isinstance(v, (dict, list)) else v)
EOF
}

# wait_idle SESSION -> polls until the session returns to idle, leaves the
# final status JSON in $work/status.json
wait_idle() {
    for _ in $(seq 1 600); do
        curl -fsS "$base/sessions/$1" > "$work/status.json"
        if [ "$(jget "$work/status.json" state)" = "idle" ]; then return 0; fi
        sleep 0.1
    done
    echo "session $1 never returned to idle" >&2
    cat "$work/status.json" >&2
    return 1
}

echo "== start daemon on $base"
start_daemon

echo "== upload graph"
curl -fsS -X POST --data-binary "@$work/g.txt" "$base/graphs?name=smoke" > "$work/graph.json"
[ "$(jget "$work/graph.json" kind)" = "undirected" ] || { echo "sniffed kind wrong" >&2; exit 1; }

echo "== session to convergence"
curl -fsS -X POST -d '{"graph":"smoke","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s1.json"
s1="$(jget "$work/s1.json" id)"
curl -fsS -X POST "$base/sessions/$s1/run" >/dev/null
wait_idle "$s1"
[ "$(jget "$work/status.json" converged)" = "True" ] || { echo "session $s1 did not converge" >&2; exit 1; }
curl -fsS "$base/sessions/$s1/result?k=5" > "$work/result.json"
[ "$(jget "$work/result.json" top | python3 -c 'import json,sys; print(len(json.load(sys.stdin)))')" = "5" ] \
    || { echo "top-5 result wrong" >&2; exit 1; }
echo "   converged: tau=$(jget "$work/result.json" tau)"

echo "== long session, SIGTERM mid-run"
curl -fsS -X POST -d '{"graph":"smoke","eps":0.003,"delta":0.1,"seed":11}' "$base/sessions" > "$work/s2.json"
s2="$(jget "$work/s2.json" id)"
curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
# Wait until it has accumulated real samples, then pull the plug.
for _ in $(seq 1 300); do
    curl -fsS "$base/sessions/$s2" > "$work/status.json"
    tau="$(jget "$work/status.json" snapshot tau)"
    if [ "$tau" -ge 500 ] 2>/dev/null; then break; fi
    sleep 0.05
done
[ "$tau" -ge 500 ] || { echo "session $s2 never accumulated samples (tau=$tau)" >&2; exit 1; }
kill -TERM "$(cat "$pidfile")"
wait "$(cat "$pidfile")" 2>/dev/null || true
rm -f "$pidfile"
# The record exists from creation; the drain must have put the session's
# state in it.
drained_tau="$(python3 scripts/record_tau.py "$data/sessions/$s2.bck")" \
    || { echo "no state in $s2's record after SIGTERM" >&2; cat "$log" >&2; exit 1; }
[ "$drained_tau" -ge "$tau" ] || { echo "drain persisted tau=$drained_tau, below the $tau sampled" >&2; exit 1; }
echo "   checkpointed at tau=$drained_tau"

echo "== restart and resume"
start_daemon
curl -fsS "$base/sessions/$s2" > "$work/status.json"
resumed_tau="$(jget "$work/status.json" snapshot tau)"
[ "$resumed_tau" -eq "$drained_tau" ] || { echo "restart resumed tau=$resumed_tau, the drain persisted $drained_tau" >&2; exit 1; }
echo "   resumed with tau=$resumed_tau"
curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
wait_idle "$s2"
[ "$(jget "$work/status.json" converged)" = "True" ] || { echo "resumed session did not converge" >&2; exit 1; }
final_tau="$(jget "$work/status.json" snapshot tau)"
[ "$final_tau" -gt "$resumed_tau" ] || { echo "resumed run did not extend samples" >&2; exit 1; }
echo "   converged at tau=$final_tau"

echo "== refine tightens without resetting"
curl -fsS -X POST -d '{"eps":0.002}' "$base/sessions/$s2/refine" >/dev/null
wait_idle "$s2"
[ "$(jget "$work/status.json" converged)" = "True" ] || { echo "refine did not converge" >&2; exit 1; }
refined_tau="$(jget "$work/status.json" snapshot tau)"
[ "$refined_tau" -gt "$final_tau" ] || { echo "refine reset samples ($final_tau -> $refined_tau)" >&2; exit 1; }
echo "   refined to eps=0.002 at tau=$refined_tau"

echo "== repeated identical query is cache-served"
# The restart emptied the in-memory cache, so warm it first.
curl -fsS -X POST -d '{"graph":"smoke","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s3.json"
s3="$(jget "$work/s3.json" id)"
curl -fsS -X POST "$base/sessions/$s3/run" >/dev/null
wait_idle "$s3"
curl -fsS -X POST -d '{"graph":"smoke","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s4.json"
s4="$(jget "$work/s4.json" id)"
curl -fsS -X POST "$base/sessions/$s4/run" >/dev/null
wait_idle "$s4"
[ "$(jget "$work/status.json" cached)" = "True" ] || { echo "repeated query not cache-served" >&2; exit 1; }
echo "   cache hit confirmed"

echo "== all server smoke checks passed"

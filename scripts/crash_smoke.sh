#!/usr/bin/env bash
# Crash-safety smoke test for betweennessd: the unclean half of
# scripts/server_smoke.sh, driven against the real binary with a real
# SIGKILL (no drain, no checkpoint-on-shutdown — whatever the periodic
# checkpointer and the write-as-produced durability paths put on disk is
# all the restart gets):
#
#   1. build the daemon, generate a graph, start with a short
#      -checkpoint-interval on a data directory
#   2. run one session to convergence (its record on disk holds the
#      converged state)
#   3. start a long (tight-epsilon) session, wait until the background
#      checkpointer has written a state into its record, freeze the daemon
#      (SIGSTOP), read tau out of the record on disk, then kill -9 the
#      daemon
#   4. restart on the same data directory, assert /readyz turns ready and
#      the long session resumed from exactly that periodic checkpoint: its
#      tau equals the tau persisted when the daemon was frozen
#   5. run the resumed session to convergence
#   6. do 3-5 again with a "backend":"dist" session: it must come back as
#      the dist session it was — status backend "dist", tau intact, no
#      "degraded" field — and run to convergence as such
#   7. repeat the step-2 query and assert it is served from the result
#      cache, which the restart re-seeded from the step-2 session's record
#
# Usage: scripts/crash_smoke.sh [workdir]
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

pick_port() { python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()'; }
port="$(pick_port)"
base="http://127.0.0.1:$port"

start_daemon() {
    "$work/betweennessd" -addr "127.0.0.1:$port" -data "$data" \
        -checkpoint-interval 500ms >>"$log" 2>&1 &
    echo $! > "$pidfile"
    for _ in $(seq 1 100); do
        if curl -fsS "$base/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "daemon did not become ready; log:" >&2
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

# ckpt_tau FILE -> prints tau from a session record; fails unless the
# record holds a state (see scripts/record_tau.py).
ckpt_tau() {
    python3 scripts/record_tau.py "$1"
}

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

echo "== start daemon on $base (checkpoint interval 500ms)"
start_daemon

echo "== upload graph"
curl -fsS -X POST --data-binary "@$work/g.txt" "$base/graphs?name=crash" >/dev/null

echo "== session to convergence (its record re-seeds the result cache after a crash)"
curl -fsS -X POST -d '{"graph":"crash","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s1.json"
s1="$(jget "$work/s1.json" id)"
curl -fsS -X POST "$base/sessions/$s1/run" >/dev/null
wait_idle "$s1"
[ "$(jget "$work/status.json" converged)" = "True" ] || { echo "session $s1 did not converge" >&2; exit 1; }
echo "   converged: tau=$(jget "$work/status.json" snapshot tau)"

# crash_pass BACKEND BODY: start a long session, freeze and SIGKILL the
# daemon once the periodic checkpointer has put a state in its record, restart,
# and require the session back on BACKEND with exactly the persisted
# samples, then run it to convergence.
crash_pass() {
    local backend="$1" body="$2"
    echo "== long $backend session, SIGKILL mid-run"
    curl -fsS -X POST -d "$body" "$base/sessions" > "$work/s2.json"
    local s2; s2="$(jget "$work/s2.json" id)"
    curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
    # Wait for the periodic checkpointer: the record exists from creation, so
    # wait for one that holds a state, and for the run to have real samples,
    # before the plug is pulled.
    local run_tau=0 captured=no
    for _ in $(seq 1 600); do
        curl -fsS "$base/sessions/$s2" > "$work/status.json"
        run_tau="$(jget "$work/status.json" snapshot tau)"
        if ckpt_tau "$data/sessions/$s2.bck" >/dev/null 2>&1; then captured=yes; fi
        if [ "$captured" = yes ] && [ "$run_tau" -ge 500 ] 2>/dev/null; then break; fi
        sleep 0.05
    done
    [ "$captured" = yes ] || { echo "periodic checkpointer never put a state in $s2.bck" >&2; cat "$log" >&2; exit 1; }
    [ "$(jget "$work/status.json" state)" != "idle" ] || { echo "session $s2 finished before the kill; tighten its eps" >&2; exit 1; }
    # Freeze the daemon, then read what it persisted. A status read followed
    # by a kill leaves a window in which a periodic checkpoint can land, so
    # the tau on disk could pass the tau read. A stopped process cannot
    # rename another record into place (a capture it was writing stays a
    # .tmp file, which the restart quarantines), so the record on disk is
    # exactly what the restart must resume from.
    kill -STOP "$(cat "$pidfile")"
    local persisted_tau; persisted_tau="$(ckpt_tau "$data/sessions/$s2.bck")"
    kill -9 "$(cat "$pidfile")"
    wait "$(cat "$pidfile")" 2>/dev/null || true
    rm -f "$pidfile"
    echo "   froze at tau=$persisted_tau persisted, then killed -9"

    echo "== restart on the crashed data directory"
    start_daemon
    curl -fsS "$base/stats" > "$work/stats.json"
    local quarantined; quarantined="$(jget "$work/stats.json" quarantined_files)"
    [ "$quarantined" = "0" ] || echo "   note: $quarantined file(s) quarantined at startup"
    curl -fsS "$base/sessions/$s2" > "$work/status.json"
    local resumed_tau; resumed_tau="$(jget "$work/status.json" snapshot tau)"
    [ "$resumed_tau" -gt 0 ] || { echo "SIGKILL lost all samples (tau=$resumed_tau)" >&2; cat "$log" >&2; exit 1; }
    [ "$resumed_tau" -eq "$persisted_tau" ] || { echo "resumed tau $resumed_tau, but the checkpoint persisted at the kill holds tau $persisted_tau" >&2; exit 1; }
    [ "$(jget "$work/status.json" backend)" = "$backend" ] || { echo "session came back on another backend:" >&2; cat "$work/status.json" >&2; exit 1; }
    if grep -q '"degraded"' "$work/status.json"; then echo "session came back degraded:" >&2; cat "$work/status.json" >&2; exit 1; fi
    echo "   resumed on $backend from the periodic checkpoint with tau=$resumed_tau"

    echo "== resumed session runs to convergence"
    curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
    wait_idle "$s2"
    [ "$(jget "$work/status.json" converged)" = "True" ] || { echo "resumed session did not converge" >&2; exit 1; }
    [ "$(jget "$work/status.json" backend)" = "$backend" ] || { echo "resumed session finished on another backend" >&2; exit 1; }
    local final_tau; final_tau="$(jget "$work/status.json" snapshot tau)"
    [ "$final_tau" -gt "$resumed_tau" ] || { echo "resumed run did not extend samples" >&2; exit 1; }
    echo "   converged at tau=$final_tau"
}

# Eps sized so each run outlasts several checkpoint intervals: a run that
# finishes before the first tick leaves only its completion checkpoint, and
# the kill would land on a converged session with nothing left to resume.
crash_pass seq '{"graph":"crash","eps":0.0015,"delta":0.1,"seed":11}'
crash_pass dist '{"graph":"crash","eps":0.001,"delta":0.1,"seed":12,"backend":"dist","procs":2,"threads":2}'

echo "== pre-kill converged result survives as a cache hit"
curl -fsS -X POST -d '{"graph":"crash","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s3.json"
s3="$(jget "$work/s3.json" id)"
curl -fsS -X POST "$base/sessions/$s3/run" >/dev/null
wait_idle "$s3"
[ "$(jget "$work/status.json" cached)" = "True" ] || { echo "pre-kill result not re-seeded from its session's record" >&2; exit 1; }
echo "   cache hit confirmed across the crash"

echo "== all crash smoke checks passed"

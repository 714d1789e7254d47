#!/usr/bin/env bash
# Crash-safety smoke test for betweennessd: the unclean half of
# scripts/server_smoke.sh, driven against the real binary with a real
# SIGKILL (no drain, no checkpoint-on-shutdown — whatever the in-run
# captures and the write-as-produced durability paths put on disk is all
# the restart gets):
#
#   1. build the daemon, generate a graph, start with a short
#      -checkpoint-interval on a data directory
#   2. run one session to convergence (its record on disk holds the
#      converged state)
#   3. start a long (tight-epsilon) session and wait until an in-run
#      capture has put a state into its record; every poll round reads the
#      record, then the status, and requires status tau >= record tau.
#      Freeze the daemon (SIGSTOP), read tau out of the record on disk,
#      require that record to be mid-run (its own section not converged),
#      then kill -9 the daemon
#   4. restart on the same data directory, assert /readyz turns ready and
#      the long session resumed from exactly that in-run capture: its tau
#      equals the tau persisted when the daemon was frozen
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
        kill -CONT "$(cat "$pidfile")" 2>/dev/null || true
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

# poll_round RECORD URL -> one Python process reads the session record
# (scripts/record_tau.py), then the session status, and prints
# "RECORD_TAU STATUS_TAU" (RECORD_TAU is - while the record holds no
# state). It fails when the status trails the record: the daemon refreshes
# the status from each in-run capture before persisting it, and both only
# grow.
poll_round() {
    python3 - "$@" <<'EOF'
import json, sys, urllib.request
sys.path.insert(0, "scripts")
from record_tau import read_record
_, rec = read_record(sys.argv[1])
tau = json.load(urllib.request.urlopen(sys.argv[2]))["snapshot"]["tau"]
if rec is not None and tau < rec:
    sys.exit("status tau %d trails the record's %d" % (tau, rec))
print("-" if rec is None else rec, tau)
EOF
}

# frozen_record RECORD -> prints "TAU mid-run" or "TAU finished" for a
# record that holds a state, from the record's own section.
frozen_record() {
    python3 - "$1" <<'EOF'
import sys
sys.path.insert(0, "scripts")
from record_tau import read_record
section, tau = read_record(sys.argv[1])
if tau is None:
    sys.exit("record %s holds no state" % sys.argv[1])
done = section.get("converged") or section.get("state_converged")
print(tau, "finished" if done else "mid-run")
EOF
}

# since START -> seconds elapsed since START (a date +%s.%N stamp)
since() { awk -v a="$(date +%s.%N)" -v b="$1" 'BEGIN { printf "%.2f", a - b }'; }

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
# daemon once an in-run capture has put a state in its record, restart,
# and require the session back on BACKEND with exactly the persisted
# samples, then run it to convergence.
crash_pass() {
    local backend="$1" body="$2"
    echo "== long $backend session, SIGKILL mid-run"
    curl -fsS -X POST -d "$body" "$base/sessions" > "$work/s2.json"
    local s2; s2="$(jget "$work/s2.json" id)"
    local started; started="$(date +%s.%N)"
    curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
    # The record exists from creation: wait for one that holds a state,
    # and for the run to have real samples, before the plug is pulled.
    local rec_tau=- run_tau=0
    for _ in $(seq 1 600); do
        poll_round "$data/sessions/$s2.bck" "$base/sessions/$s2" > "$work/poll.txt" ||
            { echo "session $s2: status check failed" >&2; exit 1; }
        read -r rec_tau run_tau < "$work/poll.txt"
        if [ "$rec_tau" != - ] && [ "$run_tau" -ge 500 ]; then break; fi
        sleep 0.05
    done
    [ "$rec_tau" != - ] || { echo "no in-run capture put a state in $s2.bck" >&2; cat "$log" >&2; exit 1; }
    # Freeze the daemon, then read what it persisted. A stopped process
    # cannot rename another record into place (a capture it was writing
    # stays a .tmp file, which the restart quarantines), so the record on
    # disk is exactly what the restart must resume from, and its own
    # section says whether the run was still going when it was written.
    kill -STOP "$(cat "$pidfile")"
    local froze_after; froze_after="$(since "$started")"
    frozen_record "$data/sessions/$s2.bck" > "$work/frozen.txt"
    local persisted_tau when
    read -r persisted_tau when < "$work/frozen.txt"
    kill -9 "$(cat "$pidfile")"
    wait "$(cat "$pidfile")" 2>/dev/null || true
    rm -f "$pidfile"
    echo "   froze ${froze_after}s into the run at tau=$persisted_tau persisted (last status read: tau=$run_tau), then killed -9"
    [ "$when" = mid-run ] || { echo "the frozen record of $s2 is its completion record: the session finished before the freeze" >&2; exit 1; }

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
    echo "   resumed on $backend from the in-run capture with tau=$resumed_tau"

    echo "== resumed session runs to convergence"
    local resumed; resumed="$(date +%s.%N)"
    curl -fsS -X POST "$base/sessions/$s2/run" >/dev/null
    wait_idle "$s2"
    [ "$(jget "$work/status.json" converged)" = "True" ] || { echo "resumed session did not converge" >&2; exit 1; }
    [ "$(jget "$work/status.json" backend)" = "$backend" ] || { echo "resumed session finished on another backend" >&2; exit 1; }
    local final_tau; final_tau="$(jget "$work/status.json" snapshot tau)"
    [ "$final_tau" -gt "$resumed_tau" ] || { echo "resumed run did not extend samples" >&2; exit 1; }
    echo "   converged at tau=$final_tau, $(since "$resumed")s after the resume"
}

# Eps sized so each session outlives its first capture (500ms in) and the
# poll-to-freeze latency (one poll round) many times over: a session that
# finishes first leaves its completion record, which the frozen-record
# check refuses. On a 2-CPU Xeon the seq session runs ~8s in all (frozen
# ~0.7s in, then 7.3-7.7s to converge after the resume, to the same tau
# as an uninterrupted run); at eps 0.0015 it ran ~1s and often finished
# before the freeze.
crash_pass seq '{"graph":"crash","eps":0.0005,"delta":0.1,"seed":11}'
crash_pass dist '{"graph":"crash","eps":0.001,"delta":0.1,"seed":12,"backend":"dist","procs":2,"threads":2}'

echo "== pre-kill converged result survives as a cache hit"
curl -fsS -X POST -d '{"graph":"crash","eps":0.05,"delta":0.1,"seed":7}' "$base/sessions" > "$work/s3.json"
s3="$(jget "$work/s3.json" id)"
curl -fsS -X POST "$base/sessions/$s3/run" >/dev/null
wait_idle "$s3"
[ "$(jget "$work/status.json" cached)" = "True" ] || { echo "pre-kill result not re-seeded from its session's record" >&2; exit 1; }
echo "   cache hit confirmed across the crash"

echo "== all crash smoke checks passed"

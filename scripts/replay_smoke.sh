#!/bin/sh
# Record/replay smoke test (docs/REPLAY.md): boot komodo-serve under the
# race detector with request recording on, drive load, then assert the
# deterministic-replay surface holds together end to end:
#   - the slowest retained request has a persisted .krec replay trace,
#   - komodo-mon -check replays it offline with zero divergence (registers,
#     memory digest, notary counter, cycle/class tallies all bit-identical),
#   - komodo-mon can navigate the replay and disassemble at the recorded PC,
#   - /v1/debug/replay re-verifies the trace in-process,
#   - /v1/debug/freeze parks a live worker mid-enclave and /v1/debug/mon
#     single-steps it, after which the worker keeps serving correctly,
#   - /metrics exports the komodo_replay_* and komodo_obs_* families,
# and finally require a clean SIGTERM drain.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -race -o "$tmp/komodo-serve" ./cmd/komodo-serve
go build -o "$tmp/komodo-load" ./cmd/komodo-load
go build -o "$tmp/komodo-mon" ./cmd/komodo-mon
go build -o "$tmp/komodo-trace" ./cmd/komodo-trace

mkdir -p "$tmp/rec"
"$tmp/komodo-serve" -addr 127.0.0.1:0 -workers 2 -record-dir "$tmp/rec" \
    -addr-file "$tmp/addr" &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "replay-smoke: server did not come up" >&2
        exit 1
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "replay-smoke: server exited during boot" >&2
        exit 1
    fi
    sleep 0.2
done
addr=$(cat "$tmp/addr")
echo "replay-smoke: server at $addr (recording to $tmp/rec)"

# fetch METHOD URL FILE: request into FILE, fail on any non-200.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        code=$(curl -s -X "$1" -o "$3" -w '%{http_code}' "$2")
        [ "$code" = "200" ] || { echo "replay-smoke: $1 $2 returned $code" >&2; cat "$3" >&2; exit 1; }
    else
        if [ "$1" = "POST" ]; then
            wget -q --post-data= -O "$3" "$2" || { echo "replay-smoke: $1 $2 failed" >&2; exit 1; }
        else
            wget -q -O "$3" "$2" || { echo "replay-smoke: $1 $2 failed" >&2; exit 1; }
        fi
    fi
}

# Recorded load: every request is recorded; the flight-retained ones
# persist their replay traces into the record dir.
"$tmp/komodo-load" -url "http://$addr" -clients 2 -requests 10 -endpoint notary
"$tmp/komodo-load" -url "http://$addr" -clients 2 -requests 6 -endpoint attest

# The slowest retained request must carry a persisted replay trace: the
# flight dump is slowest-first, so take its first "replay" link.
fetch GET "http://$addr/v1/debug/traces" "$tmp/traces.json"
krec=$(sed -n 's/.*"replay": *"\([^"]*\)".*/\1/p' "$tmp/traces.json" | head -1)
[ -n "$krec" ] && [ -f "$krec" ] || {
    echo "replay-smoke: no persisted replay trace in /v1/debug/traces" >&2
    exit 1
}
tid=$(basename "$krec" .krec)
echo "replay-smoke: slowest recorded request $tid -> $krec"

# ?min_ms= filters the dump (min_ms=0 keeps everything retained).
fetch GET "http://$addr/v1/debug/traces?min_ms=0" "$tmp/traces_all.json"
grep -q "$tid" "$tmp/traces_all.json" || {
    echo "replay-smoke: min_ms=0 filter dropped trace $tid" >&2
    exit 1
}
fetch GET "http://$addr/v1/debug/traces?min_ms=100000" "$tmp/traces_none.json"
if grep -q '"trace_id"' "$tmp/traces_none.json"; then
    echo "replay-smoke: min_ms=100000 filter kept traces" >&2
    exit 1
fi
echo "replay-smoke: /v1/debug/traces?min_ms= filter works"

# Offline replay must be bit-identical: registers, memory digest (which
# covers the in-enclave notary counter), cycle and class tallies are all
# asserted by the replayer; -check exits 1 on any divergence.
"$tmp/komodo-mon" -f "$krec" -check > "$tmp/check.txt"
grep -q "replay OK: zero divergence" "$tmp/check.txt" || {
    echo "replay-smoke: offline replay diverged" >&2
    cat "$tmp/check.txt" >&2
    exit 1
}
echo "replay-smoke: offline replay bit-identical"

# The monitor must navigate the replay: freeze at the start, disassemble
# at the recorded PC, single-step, then run the rest out clean.
"$tmp/komodo-mon" -f "$krec" -cmd "status; regs; dis; step 3; until smc; finish" > "$tmp/mon.txt"
grep -q "=>" "$tmp/mon.txt" || {
    echo "replay-smoke: komodo-mon did not disassemble at the recorded PC" >&2
    cat "$tmp/mon.txt" >&2
    exit 1
}
grep -q "replay OK: zero divergence" "$tmp/mon.txt" || {
    echo "replay-smoke: navigated replay did not finish clean" >&2
    cat "$tmp/mon.txt" >&2
    exit 1
}
echo "replay-smoke: komodo-mon navigates and disassembles the replay"

# komodo-trace correlates the timeline with replay cycle offsets.
"$tmp/komodo-trace" -f "$tmp/traces.json" -id "$tid" -replay "$krec" > "$tmp/timeline.txt"
grep -q "replay@cycle=" "$tmp/timeline.txt" || {
    echo "replay-smoke: timeline missing replay cycle offsets" >&2
    cat "$tmp/timeline.txt" >&2
    exit 1
}
echo "replay-smoke: timeline spans carry replay cycle offsets"

# The server re-verifies the trace in-process.
fetch POST "http://$addr/v1/debug/replay?id=$tid" "$tmp/replay.json"
grep -q '"ok": *true' "$tmp/replay.json" || {
    echo "replay-smoke: /v1/debug/replay reported divergence" >&2
    cat "$tmp/replay.json" >&2
    exit 1
}
echo "replay-smoke: /v1/debug/replay verified in-process"

# Freeze-the-world on a live worker: run load in the background and catch
# a worker mid-enclave, single-step it over the monitor, then resume.
"$tmp/komodo-load" -url "http://$addr" -clients 2 -requests 400 -endpoint notary > "$tmp/bgload.txt" 2>&1 &
loadpid=$!
frozen=""
for attempt in 1 2 3 4 5; do
    for wkr in 0 1; do
        if curl -s -X POST -o "$tmp/freeze.json" -w '%{http_code}' \
            "http://$addr/v1/debug/freeze?worker=$wkr&timeout_ms=2000" 2>/dev/null | grep -q 200; then
            frozen="$wkr"
            break 2
        fi
    done
done
[ -n "$frozen" ] || {
    echo "replay-smoke: could not freeze a live worker under load" >&2
    cat "$tmp/freeze.json" >&2 || true
    exit 1
}
grep -q '"frozen": *true' "$tmp/freeze.json"
echo "replay-smoke: worker $frozen frozen mid-enclave: $(cat "$tmp/freeze.json")"

"$tmp/komodo-mon" -connect "http://$addr" -worker "$frozen" \
    -cmd "regs; dis; step 2; over" > "$tmp/live.txt"
grep -q "=>" "$tmp/live.txt" || {
    echo "replay-smoke: live monitor did not disassemble" >&2
    cat "$tmp/live.txt" >&2
    exit 1
}
fetch POST "http://$addr/v1/debug/freeze?worker=$frozen&state=off" "$tmp/resume.json"
echo "replay-smoke: live single-step + resume on worker $frozen"

# The frozen-then-resumed worker must not have perturbed served results:
# the background load has to finish with every request verified.
wait "$loadpid" || {
    echo "replay-smoke: load failed after freeze/resume" >&2
    cat "$tmp/bgload.txt" >&2
    exit 1
}
echo "replay-smoke: served results unperturbed by the debug episode"

# Replay counters and obs self-metrics flow to /metrics.
fetch GET "http://$addr/metrics" "$tmp/metrics.txt"
for fam in \
    komodo_replay_traces_total \
    komodo_obs_flight_occupancy; do
    grep -q "^$fam" "$tmp/metrics.txt" || {
        echo "replay-smoke: /metrics missing family $fam" >&2
        exit 1
    }
done
grep 'komodo_replay_traces_total{event="recorded"}' "$tmp/metrics.txt" | grep -qv ' 0$' || {
    echo "replay-smoke: komodo_replay_traces_total{recorded} is zero" >&2
    exit 1
}
echo "replay-smoke: replay + obs metric families exported"

kill -TERM "$pid"
wait "$pid"
status=$?
pid=
if [ "$status" -ne 0 ]; then
    echo "replay-smoke: server exited $status after SIGTERM" >&2
    exit 1
fi
echo "replay-smoke: OK (record, bit-identical replay, monitor, live freeze, metrics, clean drain)"

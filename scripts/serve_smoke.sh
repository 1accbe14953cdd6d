#!/bin/sh
# Serve smoke test: boot komodo-serve on a random port, drive /v1/attest
# with fresh nonces, verify every quote client-side (komodo-load -verify
# checks the nonce echo, the nonce→data derivation, and kasm.VerifyQuote
# against the key from /v1/quotekey), then shut down gracefully via
# SIGTERM and require a clean exit.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/komodo-serve" ./cmd/komodo-serve
go build -o "$tmp/komodo-load" ./cmd/komodo-load

# komodo-load only drives a running server: with no -url or -targets it
# is a usage error (exit 2), never a self-booted in-process stack.
status=0
"$tmp/komodo-load" -requests 1 >"$tmp/notarget.log" 2>&1 || status=$?
if [ "$status" -ne 2 ] || ! grep -q -- '-targets' "$tmp/notarget.log"; then
    echo "serve-smoke: komodo-load without a target exited $status, want usage error 2" >&2
    cat "$tmp/notarget.log" >&2
    exit 1
fi

"$tmp/komodo-serve" -addr 127.0.0.1:0 -workers 2 -addr-file "$tmp/addr" &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "serve-smoke: server did not come up" >&2
        exit 1
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: server exited during boot" >&2
        exit 1
    fi
    sleep 0.2
done
addr=$(cat "$tmp/addr")
echo "serve-smoke: server at $addr"

"$tmp/komodo-load" -url "http://$addr" -clients 2 -requests 10 -verify

# One /metrics scrape must answer 200 (content checks live in obs_smoke.sh).
if command -v curl >/dev/null 2>&1; then
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/metrics")
else
    code=$(wget -q -S -O /dev/null "http://$addr/metrics" 2>&1 | awk '/^  HTTP\//{print $2}' | tail -1)
fi
if [ "$code" != "200" ]; then
    echo "serve-smoke: GET /metrics returned ${code:-nothing}" >&2
    exit 1
fi
echo "serve-smoke: /metrics scrape OK"

kill -TERM "$pid"
wait "$pid"
status=$?
pid=
if [ "$status" -ne 0 ]; then
    echo "serve-smoke: server exited $status after SIGTERM" >&2
    exit 1
fi
echo "serve-smoke: OK (10 verified quotes, clean drain)"

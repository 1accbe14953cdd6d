#!/bin/sh
# Batch smoke test: boot a race-instrumented komodo-serve with batched
# Merkle signing and tenant admission control, drive a mixed-tenant load,
# and hold the docs/BATCHING.md contract end to end: every batched
# receipt verifies offline (inclusion proof + root/counter binding),
# admission rejections are classified and carry Retry-After, queue
# pressure sheds the lowest tier, and the enclave counter stays strictly
# monotonic with zero duplicated ticks across all batches.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid_srv:-}" ] && kill "$pid_srv" 2>/dev/null || true' EXIT

go build -race -o "$tmp/komodo-serve" ./cmd/komodo-serve
go build -o "$tmp/komodo-load" ./cmd/komodo-load
go build -o "$tmp/komodo-verify" ./cmd/komodo-verify

# json_field <field> <file>: first integer value of "field" in a JSON file.
json_field() {
    grep -o "\"$1\": *[0-9]*" "$2" | grep -o '[0-9]*$' | head -n 1
}

# Batch flags that would run differently from what they say fail closed
# at startup with a usage error (exit 2): a -batch-min floor not below the
# -batch ceiling, and batch tuning flags without -batch. The timeout turns
# a server that wrongly started serving into a failure (status 124).
for bad in '-batch 8 -batch-min 16' '-batch-dedup'; do
    status=0
    # shellcheck disable=SC2086 # $bad is a flag list
    timeout 60 "$tmp/komodo-serve" -addr 127.0.0.1:0 $bad >"$tmp/bad.log" 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "batch-smoke: komodo-serve $bad exited $status, want usage error 2" >&2
        cat "$tmp/bad.log" >&2
        exit 1
    fi
done
echo "batch-smoke: inconsistent batch flags rejected at startup"

# Tiers: gold unlimited; free rate-limited hard enough that the mix
# produces 429 rate_limit; trial sheds as soon as the batch queue carries
# any real backlog (shed_at 0.1 of the aggregator queue).
"$tmp/komodo-serve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -workers 1 -seed 42 \
    -batch 8 -batch-window 2ms \
    -tiers 'gold:0:0:0;free:300:40:0:0.95;trial:100:20:0:0.1' \
    -tenants 'tok-g=gold,tok-f=free,tok-t=trial' -default-tier free \
    >"$tmp/serve.log" 2>&1 &
pid_srv=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 150 ] || { sleep 0.2; continue; }
    echo "batch-smoke: server did not come up" >&2
    exit 1
done
url="http://$(cat "$tmp/addr")"
echo "batch-smoke: server at $url (race-built, K=8, 3 tiers)"

# Phase 1: one receipt end to end through the CLI verifier. The saved
# response must verify offline (leaf binding included) and must FAIL
# against a different document.
head -c 300 /dev/urandom >"$tmp/doc.bin"
curl -sf --data-binary @"$tmp/doc.bin" -H 'X-Komodo-Tenant: tok-g' \
    "$url/v1/notary/sign" >"$tmp/receipt.json"
"$tmp/komodo-verify" -receipt "$tmp/receipt.json" -doc "$tmp/doc.bin" \
    || { echo "batch-smoke: saved receipt did not verify offline" >&2; exit 1; }
head -c 300 /dev/urandom >"$tmp/other.bin"
if "$tmp/komodo-verify" -receipt "$tmp/receipt.json" -doc "$tmp/other.bin" 2>/dev/null; then
    echo "batch-smoke: FAIL: receipt verified against a foreign document" >&2
    exit 1
fi
echo "batch-smoke: offline receipt verification OK (and fails closed on a foreign doc)"

# Phase 2: mixed-tenant load. -verify checks every batched receipt's
# inclusion proof offline in the client; the streamBook rejects any
# duplicated (counter, root, leaf) tick.
"$tmp/komodo-load" -url "$url" -endpoint notary -clients 32 -duration 6s -verify \
    -tenant-mix 'tok-g:3,tok-f:4,tok-t:3' -json >"$tmp/run.json"
ok=$(json_field ok "$tmp/run.json")
receipts=$(json_field receipts_verified "$tmp/run.json")
dups=$(json_field counter_dups "$tmp/run.json")
retry_missing=$(json_field retry_after_missing "$tmp/run.json")
rate=$(json_field rate_limit "$tmp/run.json"); rate=${rate:-0}
shed=$(json_field shed "$tmp/run.json"); shed=${shed:-0}

[ "$ok" -ge 100 ] || { echo "batch-smoke: only $ok signs succeeded" >&2; exit 1; }
[ "$receipts" = "$ok" ] || { echo "batch-smoke: $receipts receipts verified for $ok signs" >&2; exit 1; }
[ "$dups" = 0 ] || { echo "batch-smoke: $dups duplicated counter ticks" >&2; exit 1; }
[ "$retry_missing" = 0 ] || { echo "batch-smoke: $retry_missing rejections without Retry-After" >&2; exit 1; }
[ "$rate" -ge 1 ] || { echo "batch-smoke: no rate_limit rejections in the mix" >&2; exit 1; }
[ "$shed" -ge 1 ] || { echo "batch-smoke: no shed rejections under load" >&2; exit 1; }
echo "batch-smoke: $ok signs, $receipts receipts verified, rejects rate_limit=$rate shed=$shed, 0 dups, Retry-After on every rejection"

# Phase 3: counters are strictly monotonic across the whole run — with
# K-sized batches the tick count must be well under the sign count.
cmax=$(json_field counter_max "$tmp/run.json")
[ "$cmax" -ge 1 ] || { echo "batch-smoke: no counters observed" >&2; exit 1; }
[ "$cmax" -lt "$ok" ] || { echo "batch-smoke: $cmax ticks for $ok signs — batching not amortising" >&2; exit 1; }
echo "batch-smoke: counter ticks $cmax for $ok signed requests (amortised)"

# Phase 4: stats + metrics surfaces carry the batch and tenant ledgers.
curl -sf "$url/v1/stats" >"$tmp/stats.json"
grep -q '"batch"' "$tmp/stats.json" || { echo "batch-smoke: /v1/stats missing batch section" >&2; exit 1; }
grep -q '"tenants"' "$tmp/stats.json" || { echo "batch-smoke: /v1/stats missing tenants section" >&2; exit 1; }
curl -sf "$url/metrics" >"$tmp/metrics.txt"
grep -q '^komodo_batch_signed_total' "$tmp/metrics.txt" || { echo "batch-smoke: /metrics missing komodo_batch_*" >&2; exit 1; }
grep -q '^komodo_tenant_requests_total' "$tmp/metrics.txt" || { echo "batch-smoke: /metrics missing komodo_tenant_*" >&2; exit 1; }

kill -TERM "$pid_srv"
wait "$pid_srv" || { echo "batch-smoke: server exited uncleanly after SIGTERM (race detector?)" >&2; exit 1; }
pid_srv=
echo "batch-smoke: OK (receipts verify offline, rejections classified with Retry-After, sheds observed, counters monotonic)"

#!/usr/bin/env sh
# End-to-end smoke of the serving surface added by the multi-tenant PR:
# boots a real aidaserver (synthetic KB, tenanted config), then drives it
# with curl — the open endpoints, the /demo page, the annotated-HTML
# rendering, API-key auth (401 without a key), the token-bucket quota
# (429 + Retry-After past the burst), X-Request-ID echo, the -shards
# placement in /v1/stats and the per-tenant Prometheus families. Run from
# the repository root:
#
#   ./scripts/smoke_server.sh [path-to-aidaserver-binary]
#
# Without an argument the server binary is built into a temp dir first.
set -eu

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

bin="${1:-}"
if [ -z "$bin" ]; then
    bin="$workdir/aidaserver"
    go build -o "$bin" ./cmd/aidaserver
fi

cat >"$workdir/tenants.json" <<'EOF'
{"tenants": [
  {"name": "smoke", "key": "smoke-key", "rate_per_sec": 100, "burst": 100},
  {"name": "tiny", "key": "tiny-key", "rate_per_sec": 0.001, "burst": 1}
]}
EOF

"$bin" -gen 300 -seed 17 -shards 4 -addr 127.0.0.1:0 -tenants "$workdir/tenants.json" \
    >"$workdir/server.log" 2>&1 &
pid=$!

# The server logs its resolved address ("serving addr=127.0.0.1:NNNNN").
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*msg=serving addr=\([0-9.:]*\).*/\1/p' "$workdir/server.log" | head -1)
    if [ -n "$addr" ] && curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
        break
    fi
    addr=""
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: server exited during startup" >&2
        cat "$workdir/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: server never became healthy" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi
base="http://$addr"
echo "server up at $base"

fail() {
    echo "FAIL: $1" >&2
    cat "$workdir/server.log" >&2
    exit 1
}

# The demo page is an open endpoint and self-contained HTML.
curl -fsS "$base/demo" | grep -q '<!doctype html>' || fail "/demo is not the demo page"
curl -fsS "$base/demo" | grep -q '/v1/annotate' || fail "/demo does not drive the API"

# Annotation requires a key: 401 without, 200 with.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/annotate" \
    -H 'Content-Type: application/json' -d '{"text": "hello"}')
[ "$code" = "401" ] || fail "keyless annotate returned $code, want 401"

# The annotated-HTML rendering, authenticated.
html=$(curl -fsS -X POST "$base/v1/annotate?format=html" \
    -H 'X-API-Key: smoke-key' -H 'Content-Type: application/json' \
    -d '{"text": "A short smoke document."}')
echo "$html" | grep -q 'class="aida-doc"' || fail "?format=html did not return the annotated fragment"

# Every response carries an X-Request-ID; a supplied one is echoed.
hdr=$(curl -fsS -D - -o /dev/null -X POST "$base/v1/annotate" \
    -H 'X-API-Key: smoke-key' -H 'Content-Type: application/json' \
    -H 'X-Request-ID: smoke-trace-1' -d '{"text": "hi"}')
echo "$hdr" | grep -qi '^x-request-id: smoke-trace-1' || fail "X-Request-ID not echoed"

# The tiny tenant's bucket holds one token: first request in, second 429
# with a Retry-After.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/annotate" \
    -H 'X-API-Key: tiny-key' -H 'Content-Type: application/json' -d '{"text": "one"}')
[ "$code" = "200" ] || fail "tiny tenant's first request returned $code, want 200"
hdr=$(curl -s -D - -o /dev/null -X POST "$base/v1/annotate" \
    -H 'X-API-Key: tiny-key' -H 'Content-Type: application/json' -d '{"text": "two"}')
echo "$hdr" | grep -q '429' || fail "tiny tenant's second request was not throttled"
echo "$hdr" | grep -qi '^retry-after: [0-9]' || fail "429 lacked a Retry-After header"

# The server was booted with -shards 4: the KB's placement view is what it
# serves, and /v1/stats (open endpoint) reports the placement.
curl -fsS "$base/v1/stats" | grep -q '"shards":4' || fail "/v1/stats does not report \"shards\":4"

# Per-tenant counters in the Prometheus exposition (open endpoint).
prom=$(curl -fsS "$base/v1/stats?format=prometheus")
echo "$prom" | grep -q 'aida_server_tenant_requests_total{tenant="smoke"}' ||
    fail "prometheus lacks the smoke tenant's request counter"
echo "$prom" | grep -q 'aida_server_tenant_throttled_total{tenant="tiny"} 1' ||
    fail "prometheus lacks the tiny tenant's throttle count"

echo "OK: demo, HTML output, auth, quotas, tracing and tenant metrics all smoke-tested"

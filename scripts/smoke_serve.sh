#!/usr/bin/env bash
# Black-box smoke test of the serving daemon: build the binary, start it on
# an ephemeral port, drive the API with curl, then check that SIGTERM shuts
# it down gracefully (exit 0). CI runs this after the unit tests; it is
# also handy locally:
#
#   ./scripts/smoke_serve.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
logfile="$workdir/serve.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/aimai" ./cmd/aimai

"$workdir/aimai" serve -addr 127.0.0.1:0 -db tpch10 -scale 0.05 \
    -models-dir "$workdir/models" -telemetry "$workdir/telemetry.jsonl" \
    -tenants-dir "$workdir/tenants" -drift-mode both \
    >"$logfile" 2>&1 &
pid=$!

# The daemon prints "serving on http://ADDR (...)" once the listener is up.
addr=""
for _ in $(seq 1 120); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve exited early:" >&2
        cat "$logfile" >&2
        exit 1
    fi
    addr="$(sed -n 's#^serving on http://\([^ ]*\).*#\1#p' "$logfile")"
    [ -n "$addr" ] && break
    sleep 0.5
done
if [ -z "$addr" ]; then
    echo "serve never became ready:" >&2
    cat "$logfile" >&2
    exit 1
fi
echo "daemon ready on $addr"

fail() {
    echo "FAIL: $*" >&2
    cat "$logfile" >&2
    exit 1
}

# Liveness.
health="$(curl -sf "http://$addr/healthz")" || fail "healthz unreachable"
echo "healthz: $health"
case "$health" in
*'"status"'*'"ok"'*) ;;
*) fail "unexpected healthz body: $health" ;;
esac

# Synchronous classify with the optimizer baseline (no model uploaded).
classify="$(curl -sf "http://$addr/v1/classify" -d '{
    "query": "q6",
    "comparator": "optimizer",
    "indexes_b": [{"table":"lineitem","key":["l_shipdate"]}]
}')" || fail "classify failed"
echo "classify: $classify"
case "$classify" in
*'"verdict"'*) ;;
*) fail "classify returned no verdict: $classify" ;;
esac

# A malformed request must 400, not crash the daemon.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/classify" -d '{"query":"no-such-query"}')"
[ "$code" = "400" ] || fail "bad classify request answered $code, want 400"

# Metrics are served from the same process.
curl -sf -o /dev/null "http://$addr/metrics" || fail "metrics unreachable"

# ---- tune job round trip ----
# The README's walkthrough: submit a tune job, follow its Location header,
# poll until it is done, and check that /healthz counts it.
loc="$(curl -sf -D - -o /dev/null "http://$addr/v1/jobs/tune" -d '{"queries":["q1","q6"]}' |
    tr -d '\r' | sed -n 's#^[Ll]ocation: ##p')" || fail "tune job submission failed"
[ -n "$loc" ] || fail "tune job submission returned no Location header"
echo "tune job: $loc"
job=""
for _ in $(seq 1 240); do
    job="$(curl -sf "http://$addr$loc")" || fail "job $loc unreachable"
    case "$job" in
    *'"state": "done"'*) break ;;
    *'"state": "failed"'* | *'"state": "cancelled"'*) fail "tune job did not finish: $job" ;;
    esac
    sleep 0.5
done
case "$job" in
*'"state": "done"'*) ;;
*) fail "tune job never finished: $job" ;;
esac
echo "tune job result: $job"
health="$(curl -sf "http://$addr/healthz")" || fail "healthz unreachable after the job"
case "$health" in
*'"done": 1'*) ;;
*) fail "healthz does not count the finished job: $health" ;;
esac

# ---- online learning round trip ----
# Ingest synthetic telemetry (4 templates × 5 plans, cost tracking the
# channel mass), trigger a learning cycle, and poll until the loop trains,
# shadow-evaluates, and promotes a challenger into the registry.

status="$(curl -sf "http://$addr/v1/learn/status")" || fail "learn status unreachable"
case "$status" in
*'"cycles": 0'*) ;;
*) fail "unexpected initial learn status: $status" ;;
esac

# No encoder exists before the first promotion: the embedding endpoint
# must answer 409, not crash.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/learn/embedding")"
[ "$code" = "409" ] || fail "embedding before any promotion answered $code, want 409"

gen_telemetry() {
    local fp=0 t m
    for t in 0 1 2 3; do
        for m in 100 200 400 800 820; do
            fp=$((fp + 1))
            printf '{"db":"smoke","query":"q%02d","template_hash":%d,"fingerprint":%d,"cost":%d,"est_total_cost":%d,"channels":{"EstNodeCost":[%d],"LeafWeightEstBytesWeightedSum":[%d]}}\n' \
                "$t" $((1000 + t)) "$fp" "$m" "$m" "$m" "$m"
        done
    done
}

ingest="$(gen_telemetry | curl -sf "http://$addr/v1/telemetry" --data-binary @-)" || fail "telemetry ingest failed"
echo "telemetry: $ingest"
case "$ingest" in
*'"accepted": 20'*) ;;
*) fail "telemetry ingest did not accept 20 records: $ingest" ;;
esac

trigger="$(curl -sf -X POST "http://$addr/v1/learn/trigger" -d '{"reason":"smoke"}')" || fail "learn trigger failed"
echo "trigger: $trigger"

promoted=""
for _ in $(seq 1 120); do
    status="$(curl -sf "http://$addr/v1/learn/status")" || fail "learn status unreachable mid-cycle"
    case "$status" in
    *'"decision": "promoted"'*)
        promoted=yes
        break
        ;;
    *'"decision": "rejected"'* | *'"decision": "skipped"'*)
        fail "learning cycle did not promote: $status"
        ;;
    esac
    sleep 0.5
done
[ -n "$promoted" ] || fail "learning cycle never finished: $status"
echo "learn status: $status"
case "$status" in
*'"promotions": 1'*'"active_model": 1'* | *'"active_model": 1'*'"promotions": 1'*) ;;
*) fail "promotion not visible in learn status: $status" ;;
esac

# The promoted version is a real registry version on disk...
[ -f "$workdir/models/v0001.clf" ] || fail "promoted model blob missing from the registry directory"

# ...the daemon now serves it on the model comparator path...
classify="$(curl -sf "http://$addr/v1/classify" -d '{
    "query": "q6",
    "indexes_b": [{"table":"lineitem","key":["l_shipdate"]}]
}')" || fail "classify with the promoted model failed"
case "$classify" in
*'"comparator": "model"'*'"model_version": 1'* | *'"model_version": 1'*'"comparator": "model"'*) ;;
*) fail "classify is not using the promoted model: $classify" ;;
esac
echo "classify (promoted model): $classify"

# ...and the transition is visible in the metrics snapshot.
metrics="$(curl -sf "http://$addr/metrics")" || fail "metrics unreachable after promotion"
case "$metrics" in
*'learn.promotions'*) ;;
*) fail "learn.promotions missing from /metrics" ;;
esac

# ---- workload embedding round trip ----
# The promotion (in -drift-mode both) trained a plan encoder; the current
# window's embedding must be served with the encoder version and a drift
# distance against the promotion-time reference. JSON encoding guarantees
# the vector is finite (NaN/Inf would fail to marshal and answer 500).
embedding="$(curl -sf "http://$addr/v1/learn/embedding")" || fail "embedding after promotion failed"
echo "embedding: $embedding"
case "$embedding" in
*'"drift_mode": "both"'*) ;;
*) fail "embedding missing drift mode: $embedding" ;;
esac
case "$embedding" in
*'"encoder_version": 1'*) ;;
*) fail "embedding missing encoder version: $embedding" ;;
esac
case "$embedding" in
*'"vector"'*) ;;
*) fail "embedding missing vector: $embedding" ;;
esac
case "$embedding" in
*'"distance"'*) ;;
*) fail "embedding missing drift distance: $embedding" ;;
esac

# ---- multi-tenant serving plane ----
# Tenant "acme" gets its own registry, telemetry partition, and learning
# loop under -tenants-dir; the default tenant and tenant "beta" must not
# observe any of it.

# Tenant IDs are validated at the edge.
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Tenant: ../evil' "http://$addr/v1/models")"
[ "$code" = "400" ] || fail "hostile tenant id answered $code, want 400"

# Ingest the same workload as tenant acme and promote a model there.
ingest="$(gen_telemetry | curl -sf -H 'X-Tenant: acme' "http://$addr/v1/telemetry" --data-binary @-)" \
    || fail "acme telemetry ingest failed"
case "$ingest" in
*'"accepted": 20'*) ;;
*) fail "acme ingest did not accept 20 records: $ingest" ;;
esac

curl -sf -X POST "http://$addr/v1/t/acme/learn/trigger" -d '{"reason":"smoke-acme"}' >/dev/null \
    || fail "acme learn trigger failed"

promoted=""
for _ in $(seq 1 120); do
    status="$(curl -sf "http://$addr/v1/t/acme/learn/status")" || fail "acme learn status unreachable"
    case "$status" in
    *'"decision": "promoted"'*)
        promoted=yes
        break
        ;;
    *'"decision": "rejected"'* | *'"decision": "skipped"'*)
        fail "acme learning cycle did not promote: $status"
        ;;
    esac
    sleep 0.5
done
[ -n "$promoted" ] || fail "acme learning cycle never finished: $status"
echo "acme learn status: $status"

# Acme's model landed in its own namespace on disk...
[ -f "$workdir/tenants/acme/models/v0001.clf" ] || fail "acme model blob missing from tenant namespace"
[ -f "$workdir/tenants/acme/telemetry.jsonl" ] || fail "acme telemetry partition missing"

# ...and acme serves it.
classify="$(curl -sf "http://$addr/v1/t/acme/classify" -d '{
    "query": "q6",
    "indexes_b": [{"table":"lineitem","key":["l_shipdate"]}]
}')" || fail "acme classify failed"
case "$classify" in
*'"comparator": "model"'*'"model_version": 1'* | *'"model_version": 1'*'"comparator": "model"'*) ;;
*) fail "acme classify is not using acme's promoted model: $classify" ;;
esac

# Cross-tenant isolation: beta never ingested or promoted anything, so its
# model-comparator classify must 409 even while acme serves a model...
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/t/beta/classify" -d '{
    "query": "q6",
    "indexes_b": [{"table":"lineitem","key":["l_shipdate"]}]
}')"
[ "$code" = "409" ] || fail "beta classify answered $code, want 409 (no model in beta namespace)"

# ...beta's telemetry partition is empty...
beta_health="$(curl -sf -H 'X-Tenant: beta' "http://$addr/healthz")" || fail "beta healthz failed"
case "$beta_health" in
*'"telemetry": 0'*) ;;
*) fail "beta saw foreign telemetry: $beta_health" ;;
esac

# ...and the default tenant still counts exactly its own 20 records.
def_health="$(curl -sf "http://$addr/healthz")" || fail "default healthz failed"
case "$def_health" in
*'"telemetry": 20'*) ;;
*) fail "default tenant telemetry drifted: $def_health" ;;
esac

echo "multi-tenant isolation checks passed"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
[ "$status" = "0" ] || fail "serve exited $status after SIGTERM"
grep -q "bye" "$logfile" || fail "graceful-shutdown banner missing"
grep -q "tenants:" "$logfile" || fail "tenant shutdown summary missing"

echo "smoke test passed"

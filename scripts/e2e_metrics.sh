#!/usr/bin/env bash
# e2e_metrics.sh — end-to-end observability check. Boots a real auditd
# on a loopback port, drives the full induce → audit → drift →
# re-induction cycle over the HTTP API with curl, then scrapes
# GET /metrics and fails on a malformed exposition (cmd/promcheck, the
# same format oracle the unit tests use) or on any advertised series
# missing or carrying the wrong value. Needs only curl and the go
# toolchain; run from anywhere inside the repo. CI runs it as the e2e
# job.
set -euo pipefail
cd "$(dirname "$0")/.."

# The shared harness installs the cleanup trap the moment it is sourced —
# before the first boot — so no assertion failure can leak a process.
source scripts/lib_e2e.sh
WORK="$E2E_WORK"

PORT="${E2E_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"

# --- fixture: rule-governed clean table + a heavily polluted batch ----
cat > "$WORK/engine.schema" <<'EOF'
BRV nominal 404,501,600
GBM nominal G1,G2,G3
KBM nominal 01,02,03
KM  numeric 0 200000
EOF
go run ./cmd/tdgen -schema "$WORK/engine.schema" -records 4000 -rules 20 \
    -seed 7 -out "$WORK/clean.csv"
# Half the records corrupted: the dirty batch's suspicious rate has to
# clear the drift threshold over the clean-trained baseline. No
# duplication/deletion so the batch keeps a predictable shape.
go run ./cmd/pollute -schema "$WORK/engine.schema" -in "$WORK/clean.csv" \
    -out "$WORK/dirty.csv" -wrong 0.5 -null 0.1 -dup 0 -del 0 -seed 42

# --- boot auditd ------------------------------------------------------
go build -o "$WORK/auditd" ./cmd/auditd
# A zero limit is refused at boot: auditd exits non-zero before it opens
# the registry or binds the port, instead of silently using the default.
rc=0
timeout 10 "$WORK/auditd" -addr "127.0.0.1:$PORT" -dir "$WORK/rejected" \
    -max-batch-rows 0 2> "$WORK/rejected.log" || rc=$?
if [ "$rc" = 0 ] || [ "$rc" = 124 ] || ! grep -qF -- '-max-batch-rows 0' "$WORK/rejected.log" \
    || grep -qF 'listening on' "$WORK/rejected.log" || [ -e "$WORK/rejected" ]; then
    echo "e2e_metrics: auditd -max-batch-rows 0 did not fail fast (exit $rc):" >&2
    cat "$WORK/rejected.log" >&2
    exit 1
fi
# -null-delta 0.01: the polluter nulls one random attribute per hit
# record, so the dirty window's per-attribute null rates sit near
# null-prob/num-attrs ≈ 0.025 — above 0.01, so completeness drift latches.
"$WORK/auditd" -addr "127.0.0.1:$PORT" -dir "$WORK/registry" \
    -monitor-window 1000 -drift-delta 0.05 -null-delta 0.01 -auto-reinduce \
    -reservoir-rows 2048 &
e2e_register_pid $!

e2e_wait_healthy "$BASE" auditd

# --- induce → audit → drift ------------------------------------------
curl -fsS -F name=e2e -F schema=@"$WORK/engine.schema" \
    -F csv=@"$WORK/clean.csv" -F 'options={"minConfidence":0.8}' \
    "$BASE/v1/models" >/dev/null
audit() {
    curl -fsS -H 'Content-Type: text/csv' --data-binary @"$1" \
        "$BASE/v1/models/e2e/audit" >/dev/null
}
audit "$WORK/clean.csv"   # window 1: establishes the MinWindows warm-up
audit "$WORK/clean.csv"   # window 2
audit "$WORK/dirty.csv"   # window 3: suspicious-rate excess fires drift

# The re-induction runs in a background worker; wait for its outcome
# counter rather than the published version to avoid racing the scrape.
for i in $(seq 1 120); do
    if curl -fsS "$BASE/metrics" | grep -qF \
        'dataaudit_reinductions_total{model="e2e",outcome="reinduced"} 1'; then
        break
    fi
    if [ "$i" = 120 ]; then
        echo "e2e_metrics: drift never produced a re-induction; last scrape:" >&2
        curl -fsS "$BASE/metrics" >&2 || true
        exit 1
    fi
    sleep 0.5
done

# --- scrape and verify ------------------------------------------------
curl -fsS "$BASE/metrics" > "$WORK/metrics.txt"
go run ./cmd/promcheck "$WORK/metrics.txt"

fail=0
require() {
    if ! grep -qF -- "$1" "$WORK/metrics.txt"; then
        echo "e2e_metrics: MISSING series: $1" >&2
        fail=1
    fi
}
# Scoring and monitoring state for the driven model.
require 'dataaudit_rows_scored_total{model="e2e"}'
require 'dataaudit_rows_suspicious_total{model="e2e"}'
require 'dataaudit_attr_deviations_total{model="e2e",attr="GBM"}'
require 'dataaudit_attr_suspicious_total{model="e2e",attr="GBM"}'
require 'dataaudit_monitor_windows_sealed_total{model="e2e"} 3'
require 'dataaudit_window_suspicious_rate{model="e2e"}'
require 'dataaudit_baseline_suspicious_rate{model="e2e"}'
require 'dataaudit_drift_delta{model="e2e"}'
require 'dataaudit_drift_page_hinkley{model="e2e"}'
require 'dataaudit_drift_active{model="e2e"} 0'   # cleared by the successor swap
# Completeness: the dirty batch nulls ~2.5% of each attribute's cells, so
# the null counters fill and the window-3 null rates latch the (purely
# observational) completeness-drift counter.
require 'dataaudit_attr_nulls_total{model="e2e",attr="GBM"}'
require 'dataaudit_attr_null_rate{model="e2e",attr="GBM"}'
require 'dataaudit_attr_null_drift_total{model="e2e",attr="GBM"} 1'
require 'dataaudit_reservoir_rows{model="e2e"}'
# Persistence: the sealed windows reached the state file.
require 'dataaudit_monitor_state_writes_total{model="e2e",outcome="ok"}'
# The closed loop: drift produced exactly one successful re-induction.
require 'dataaudit_reinductions_total{model="e2e",outcome="reinduced"} 1'
require 'dataaudit_reinduction_seconds_count 1'
# Route instrumentation: the three audit calls above, with latency.
require 'dataaudit_http_requests_total{route="/v1/models/{name}/audit",method="POST",code="200"} 3'
require 'dataaudit_http_request_seconds_bucket{route="/v1/models/{name}/audit",le='
# Process- and registry-level series.
require 'dataaudit_registry_cache_hits_total'
require 'dataaudit_registry_cache_misses_total'
require 'dataaudit_registry_cache_resident'
require 'dataaudit_uptime_seconds'
require 'dataaudit_build_info{version='

if [ "$fail" -ne 0 ]; then
    echo "e2e_metrics: FAILED; full scrape:" >&2
    cat "$WORK/metrics.txt" >&2
    exit 1
fi

families=$(grep -c '^# TYPE ' "$WORK/metrics.txt")
if [ "$families" -lt 12 ]; then
    echo "e2e_metrics: only $families metric families exported, want >= 12" >&2
    exit 1
fi
echo "e2e_metrics: OK ($families metric families, drift loop closed)"

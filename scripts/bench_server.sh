#!/bin/sh
# Regenerates BENCH_server.json: QPS and p50/p99 latency of a live
# sigfiled instance under a read-heavy workload (HTTP and binary
# protocol) and a mixed insert:search workload, followed by the
# durability drill — SIGTERM under load, assert exit 0, restart, and
# verify every acknowledged write survived (sigload -verify).
#
#   scripts/bench_server.sh [duration] [workers]
#
# The report uses the shared benchfmt schema, so BENCH_server.json
# reads like BENCH_lsm.json and BENCH_shard.json.
set -eu
cd "$(dirname "$0")/.."

DURATION="${1:-5s}"
WORKERS="${2:-8}"
HTTP_PORT="${SIGFILED_HTTP_PORT:-18080}"
BIN_PORT="${SIGFILED_BIN_PORT:-18081}"
ADDR="http://127.0.0.1:$HTTP_PORT"

TMP="$(mktemp -d)"
DATA="$TMP/data"
MODEL="$TMP/model.jsonl"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/sigfiled" ./cmd/sigfiled
go build -o "$TMP/sigload" ./cmd/sigload

start_server() {
    "$TMP/sigfiled" -data "$DATA" -addr "127.0.0.1:$HTTP_PORT" \
        -binary-addr "127.0.0.1:$BIN_PORT" -checkpoint 2s &
    SRV_PID=$!
    i=0
    until curl -sf "$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i+1))
        [ "$i" -gt 50 ] && { echo "sigfiled did not come up" >&2; exit 1; }
        sleep 0.2
    done
}

start_server

# Phase 1: read-heavy (0:1) over HTTP.
"$TMP/sigload" -addr "$ADDR" -proto http -tenants 2 -workers "$WORKERS" \
    -duration "$DURATION" -mix 0:1 -name read_heavy_http -json BENCH_server.json

# Phase 2: the same read-heavy mix over the binary protocol.
"$TMP/sigload" -addr "$ADDR" -binary-addr "127.0.0.1:$BIN_PORT" -proto binary \
    -tenants 2 -workers "$WORKERS" -duration "$DURATION" -mix 0:1 \
    -name read_heavy_binary -json BENCH_server.json -append

# Phase 3: mixed 1 insert : 4 searches over HTTP, logging acknowledged
# writes to the model file for the durability drill.
"$TMP/sigload" -addr "$ADDR" -proto http -tenants 2 -workers "$WORKERS" \
    -duration "$DURATION" -mix 1:4 -name mixed_1i4s -model "$MODEL" \
    -json BENCH_server.json -append

# Durability drill: more acknowledged writes racing a SIGTERM. sigload
# keeps appending to the model until the server stops answering; the
# server must exit 0 (graceful: queues drained, tenants checkpointed).
"$TMP/sigload" -addr "$ADDR" -proto http -tenants 2 -workers "$WORKERS" \
    -duration 30s -mix 1:1 -model "$MODEL" >/dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "sigfiled exited nonzero on SIGTERM under load" >&2
    exit 1
fi
wait "$LOAD_PID" 2>/dev/null || true  # load fails once the server is gone; expected

# Restart over the same data dir and verify every acknowledged write.
start_server
"$TMP/sigload" -addr "$ADDR" -verify -model "$MODEL" -json BENCH_server.json -append

kill -TERM "$SRV_PID"
wait "$SRV_PID"
echo "wrote BENCH_server.json"

#!/usr/bin/env bash
# bench_batch.sh — cross-request slot batching throughput experiment.
#
# Serves MODEL (default the 64x10 linear demo; builtin:resnet20 is the
# reduced ResNet-20) with the ring degree forced to 2^LOGN so the program
# has spare slot lanes, then measures inferences/sec under
# CLIENTS concurrent clients twice: batched (-batch-max) and unbatched.
# Both daemons run the SAME forced ring on ONE worker, so the ratio
# isolates what coalescing buys. acebench -load extends its window until
# at least one inference completes, so rates are meaningful even when a
# single inference takes longer than WINDOW.
#
# Best-of-RUNS per mode; the summary lands in OUT (BENCH_batch.json).
# With the default model a run takes about 2*RUNS*WINDOW; with
# MODEL=builtin:resnet20 every load phase waits for at least one
# encrypted ResNet-20 inference, minutes each, so budget hours.
#
# Tunables (env): MODEL LOGN CLIENTS BATCH_MAX BATCH_WINDOW WINDOW RUNS OUT
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL=${MODEL:-builtin:linear}
LOGN=${LOGN:-12}
CLIENTS=${CLIENTS:-8}
BATCH_MAX=${BATCH_MAX:-8}
BATCH_WINDOW=${BATCH_WINDOW:-2s}
WINDOW=${WINDOW:-60s}
RUNS=${RUNS:-3}
OUT=${OUT:-BENCH_batch.json}
REQ_DEADLINE=${REQ_DEADLINE:-35m}

WORKDIR=$(mktemp -d)
ACED_PID=""
cleanup() {
    [ -n "$ACED_PID" ] && kill -TERM "$ACED_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "bench-batch: building binaries" >&2
go build -o "$WORKDIR/aced" ./cmd/aced
go build -o "$WORKDIR/acebench" ./cmd/acebench

# run_one MODE IDX: boot a fresh daemon, drive one load run against it,
# print the load report JSON line.
run_one() {
    local mode=$1 idx=$2
    local addrfile="$WORKDIR/addr.$mode.$idx"
    local batchflags=()
    if [ "$mode" = batched ]; then
        batchflags=(-batch-max "$BATCH_MAX" -batch-window "$BATCH_WINDOW")
    fi
    "$WORKDIR/aced" -addr 127.0.0.1:0 -addr-file "$addrfile" \
        -model "$MODEL" -profile test -force-logn "$LOGN" \
        -workers 1 -queue 32 -deadline 30m -max-deadline 40m \
        -session-budget-mb 16384 \
        -drain-timeout 10s -log-level warn \
        "${batchflags[@]}" >"$WORKDIR/aced.$mode.$idx.log" 2>&1 &
    ACED_PID=$!
    local i
    for i in $(seq 1 120); do
        [ -s "$addrfile" ] && break
        if ! kill -0 "$ACED_PID" 2>/dev/null; then
            echo "bench-batch: aced ($mode #$idx) died at startup:" >&2
            cat "$WORKDIR/aced.$mode.$idx.log" >&2
            exit 1
        fi
        sleep 1
    done
    [ -s "$addrfile" ] || { echo "bench-batch: aced never bound" >&2; exit 1; }
    local url="http://$(cat "$addrfile")"
    echo "bench-batch: $mode run $idx against $url" >&2
    "$WORKDIR/acebench" -load "$url" -clients "$CLIENTS" -duration "$WINDOW" \
        -request-deadline "$REQ_DEADLINE" 2>>"$WORKDIR/load.$mode.$idx.log"
    kill -TERM "$ACED_PID" 2>/dev/null || true
    wait "$ACED_PID" 2>/dev/null || true
    ACED_PID=""
}

rate_of() { # extract inferences_per_sec from a report line
    sed -n 's/.*"inferences_per_sec":\([0-9.eE+-]*\).*/\1/p' <<<"$1"
}

declare -a BATCHED_RUNS UNBATCHED_RUNS
BEST_BATCHED=0
BEST_UNBATCHED=0
for idx in $(seq 1 "$RUNS"); do
    for mode in batched unbatched; do
        rep=$(run_one "$mode" "$idx")
        r=$(rate_of "$rep")
        if [ -z "$r" ]; then
            echo "bench-batch: $mode run $idx produced no report; load log:" >&2
            tail -20 "$WORKDIR/load.$mode.$idx.log" >&2 || true
            exit 1
        fi
        echo "bench-batch: $mode run $idx: $r inferences/sec" >&2
        if [ "$mode" = batched ]; then
            BATCHED_RUNS+=("$rep")
            BEST_BATCHED=$(awk -v a="$BEST_BATCHED" -v b="$r" 'BEGIN{print (b>a)?b:a}')
        else
            UNBATCHED_RUNS+=("$rep")
            BEST_UNBATCHED=$(awk -v a="$BEST_UNBATCHED" -v b="$r" 'BEGIN{print (b>a)?b:a}')
        fi
    done
done

SPEEDUP=$(awk -v b="$BEST_BATCHED" -v u="$BEST_UNBATCHED" 'BEGIN{if (u>0) printf "%.2f", b/u; else print 0}')

join_runs() { local IFS=,; echo "$*"; }

cat >"$OUT" <<EOF
{
  "description": "Serving throughput of cross-request slot batching (internal/batch): $CLIENTS concurrent clients drive one aced worker serving $MODEL with the ring forced to logN=$LOGN, so the program has spare slot lanes. 'batched' coalesces up to $BATCH_MAX requests per fused evaluation (-batch-max $BATCH_MAX -batch-window $BATCH_WINDOW); 'unbatched' is the same daemon, same ring, batching off. Rates are client-observed completed inferences per second from acebench -load (window $WINDOW, extended until the first completion); best of $RUNS runs per mode. The speedup isolates coalescing: per-inference evaluation cost is identical in both modes by construction.",
  "environment": {
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)",
    "num_cpu": $(getconf _NPROCESSORS_ONLN),
    "note": "Single-worker daemon. Batched waves carry up to $BATCH_MAX requests in one ciphertext; the unbatched rate is one client-observed inference per evaluation."
  },
  "config": {
    "model": "$MODEL",
    "force_logn": $LOGN,
    "clients": $CLIENTS,
    "batch_max": $BATCH_MAX,
    "batch_window": "$BATCH_WINDOW",
    "window": "$WINDOW",
    "runs": $RUNS
  },
  "batched": {
    "best_inferences_per_sec": $BEST_BATCHED,
    "runs": [$(join_runs "${BATCHED_RUNS[@]}")]
  },
  "unbatched": {
    "best_inferences_per_sec": $BEST_UNBATCHED,
    "runs": [$(join_runs "${UNBATCHED_RUNS[@]}")]
  },
  "speedup": $SPEEDUP
}
EOF

echo "bench-batch: batched $BEST_BATCHED vs unbatched $BEST_UNBATCHED inferences/sec -> ${SPEEDUP}x (wrote $OUT)" >&2

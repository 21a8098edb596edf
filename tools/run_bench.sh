#!/bin/sh
# Smoke benchmark runner: collects pipeline timing rows and observability
# sample artifacts into a reviewable baseline.
#
# Runs bench_fig7_runtime and bench_scaling in the pinned smoke
# configuration (seed 2015, MAROON_BENCH_SCALE=1, google-benchmark loops
# filtered out), gathers their EmitBenchRow JSONL rows, and measures the
# instrumentation overhead of the metrics layer by timing bench_fig7_runtime
# with MAROON_METRICS=off versus on (tracing stays off in both runs; a
# warm-up run is discarded first). It then links one entity of a freshly
# generated clean Recruitment corpus through maroon_cli with
# --metrics-out/--trace-out/--metrics-prom-out/--metrics-jsonl to produce
# sample observability artifacts, and fails if the quarantine or
# degenerate-score counters are nonzero — clean seed data must link cleanly.
#
# Every EmitBenchRow JSONL row must carry the per-row
# "schema": "maroon_bench_runtime_v1" tag, and every awk extraction must
# come back numeric — a silent format drift fails the run instead of
# producing a hollow baseline. When OUT_FILE already exists, the previous
# baseline is saved first and maroon_benchdiff gates the fresh run against
# it (threshold MAROON_BENCHDIFF_THRESHOLD_PCT, default 100 — i.e. a 2x
# slowdown fails; timings on shared runners are noisy, so the default is
# deliberately loose).
#
# Usage: tools/run_bench.sh [BUILD_DIR] [OUT_FILE] [ARTIFACTS_DIR]
#   BUILD_DIR      cmake build tree, default ./build
#   OUT_FILE       baseline to write, default ./BENCH_runtime.json
#   ARTIFACTS_DIR  smoke_metrics.json / smoke_trace.json / smoke_metrics.prom
#                  / smoke_metrics.jsonl, default ./bench_artifacts
#
# BENCH_runtime.json schema ("maroon_bench_runtime_v1"):
# {
#   "schema": "maroon_bench_runtime_v1",
#   "config": {"bench_scale": 1, "seed": 2015, "benchmark_loops": false},
#   "rows": [   # every row also carries "schema": "maroon_bench_runtime_v1"
#     {"bench": "fig7_runtime", "corpus": "recruitment"|"dblp",
#      "method": "MAROON"|"MUTA+AFDS",
#      "phase1_s": N, "phase2_s": N, "total_s": N, "entities": N},
#     {"bench": "scaling", "corpus": "recruitment", "method": "MAROON",
#      "entities": N, "records": N, "threads": N, "train_s": N,
#      "link_total_s": N, "per_entity_ms": N, "per_entity_p50_ms": N,
#      "per_entity_p95_ms": N, "per_entity_p99_ms": N,
#      "per_entity_p999_ms": N},
#     {"bench": "thread_sweep", "corpus": "dblp", "method": "MAROON",
#      "threads": 1|2|4|8, "train_wall_s": N, "eval_wall_s": N,
#      "batch_wall_s": N, "total_wall_s": N, "result_hash": N,
#      "entities": N},
#     {"bench": "replay_durability", "corpus": "recruitment",
#      "mode": "no_wal"|"wal_buffered"|"wal_synced",
#      "records": N, "wall_s": N, "records_per_s": N},
#     {"bench": "replay_durability", "corpus": "recruitment",
#      "mode": "snapshot", "entities": N, "snapshot_write_s": N,
#      "snapshot_bytes": N},
#     {"bench": "serve_scrape", "mode": "render"|"http",
#      "iterations": N, "p50_ms": N, "p99_ms": N, "bytes": N},
#     ...
#   ],
#   "overhead": {
#     "bench": "fig7_runtime",
#     "metrics_off_total_s": N,   # sum of fig7 total_s, MAROON_METRICS=off
#     "metrics_on_total_s": N,    # same with metrics on (tracing off)
#     "overhead_pct": N           # 100 * (on - off) / off; target <= 3
#   },
#   "thread_sweep": {
#     "bench": "thread_sweep",
#     "host_cores": N,            # nproc on the machine that ran the sweep
#     "total_wall_s_1t": N,       # thread_sweep total at --threads=1
#     "total_wall_s_8t": N,       # same at --threads=8
#     "speedup_8v1": N            # 1t / 8t; bounded by host_cores
#   }
# }
#
# The sweep hard-fails if the four thread_sweep result_hash values differ:
# every thread count must compute the identical batch assignment.
#
# Timings are machine-dependent: the committed baseline is for spotting
# gross regressions and schema drift, not a calibrated benchmark.

set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_runtime.json}"
ARTIFACTS="${3:-bench_artifacts}"

FIG7="$BUILD_DIR/bench/bench_fig7_runtime"
SCALING="$BUILD_DIR/bench/bench_scaling"
DURABILITY="$BUILD_DIR/bench/bench_replay_durability"
SERVE_SCRAPE="$BUILD_DIR/bench/bench_serve_scrape"
CLI="$BUILD_DIR/tools/maroon_cli"
BENCHDIFF="$BUILD_DIR/tools/maroon_benchdiff"
for binary in "$FIG7" "$SCALING" "$DURABILITY" "$SERVE_SCRAPE" "$CLI" "$BENCHDIFF"; do
  if [ ! -x "$binary" ]; then
    echo "run_bench.sh: missing $binary (build the bench and tools targets first)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
mkdir -p "$ARTIFACTS"

# Pin the smoke configuration: seed 2015 is compiled into bench_common.h,
# scale is forced to 1 here, and the google-benchmark loops are skipped so
# only the deterministic figure/scaling passes run.
export MAROON_BENCH_SCALE=1
FILTER="--benchmark_filter=__skip_all__"

# Sums total_s over the rows of one bench in a JSONL file.
sum_total_s() {
  awk -v bench="$2" '
    index($0, "\"bench\": \"" bench "\"") == 0 { next }
    {
      i = index($0, "\"total_s\": ")
      if (i == 0) next
      rest = substr($0, i + 11)
      sub(/[,}].*/, "", rest)
      sum += rest + 0
    }
    END { printf "%.6f", sum }
  ' "$1"
}

# Fails unless every row in a JSONL file carries the per-row schema tag —
# the guard against a bench emitting rows an older/newer consumer would
# silently misread.
require_schema_rows() {
  bad="$(grep -cv '"schema": "maroon_bench_runtime_v1"' "$1" || true)"
  total="$(wc -l < "$1")"
  if [ "$total" -eq 0 ]; then
    echo "FAIL: $1 is empty — benches emitted no rows" >&2
    exit 1
  fi
  if [ "$bad" -ne 0 ]; then
    echo "FAIL: $bad of $total row(s) in $1 lack \"schema\": \"maroon_bench_runtime_v1\":" >&2
    grep -v '"schema": "maroon_bench_runtime_v1"' "$1" | head -5 >&2
    exit 1
  fi
}

# Fails when an awk extraction came back empty or non-numeric instead of
# letting a zero flow into the document.
require_number() {
  case "$2" in
    *[0-9]*) ;;
    *)
      echo "FAIL: $1 extraction came up empty or non-numeric ('$2')" >&2
      exit 1
      ;;
  esac
}

# Extracts one counter from a metrics snapshot JSON (0 when absent).
counter_value() {
  value="$(awk -v name="$2" '
    {
      pat = "\"" name "\": "
      i = index($0, pat)
      if (i == 0) next
      rest = substr($0, i + length(pat))
      sub(/[^0-9].*/, "", rest)
      print rest
      exit
    }
  ' "$1")"
  echo "${value:-0}"
}

echo "== bench_fig7_runtime: warm-up (discarded) =="
MAROON_METRICS=off "$FIG7" "$FILTER" > /dev/null

echo "== bench_fig7_runtime: metrics off =="
MAROON_METRICS=off MAROON_BENCH_JSON="$WORK/off.jsonl" \
  "$FIG7" "$FILTER" > /dev/null
require_schema_rows "$WORK/off.jsonl"
OFF_TOTAL="$(sum_total_s "$WORK/off.jsonl" fig7_runtime)"
require_number metrics_off_total_s "$OFF_TOTAL"

echo "== bench_fig7_runtime: metrics on =="
MAROON_BENCH_JSON="$WORK/rows.jsonl" "$FIG7" "$FILTER" > /dev/null
ON_TOTAL="$(sum_total_s "$WORK/rows.jsonl" fig7_runtime)"
require_number metrics_on_total_s "$ON_TOTAL"

echo "== bench_scaling =="
MAROON_BENCH_JSON="$WORK/rows.jsonl" "$SCALING" "$FILTER" > /dev/null
require_schema_rows "$WORK/rows.jsonl"

echo "== bench_replay_durability =="
MAROON_BENCH_JSON="$WORK/rows.jsonl" "$DURABILITY" "$FILTER" > /dev/null
require_schema_rows "$WORK/rows.jsonl"
# The durable default must actually have streamed: a zero throughput row
# means the WAL path silently did no work.
WAL_RPS="$(awk '
  index($0, "\"bench\": \"replay_durability\"") == 0 { next }
  index($0, "\"mode\": \"wal_synced\"") == 0 { next }
  {
    i = index($0, "\"records_per_s\": ")
    rest = substr($0, i + 17); sub(/[,}].*/, "", rest); print rest + 0
  }' "$WORK/rows.jsonl")"
require_number replay_durability_records_per_s "$WAL_RPS"

echo "== bench_serve_scrape =="
MAROON_BENCH_JSON="$WORK/rows.jsonl" "$SERVE_SCRAPE" "$FILTER" > /dev/null
require_schema_rows "$WORK/rows.jsonl"
# The render row must carry a real tail latency: a zero p99 means the
# scrape path measured nothing.
SCRAPE_P99="$(awk '
  index($0, "\"bench\": \"serve_scrape\"") == 0 { next }
  index($0, "\"mode\": \"render\"") == 0 { next }
  {
    i = index($0, "\"p99_ms\": ")
    rest = substr($0, i + 10); sub(/[,}].*/, "", rest); print rest + 0
  }' "$WORK/rows.jsonl")"
require_number serve_scrape_p99_ms "$SCRAPE_P99"

OVERHEAD_PCT="$(awk -v off="$OFF_TOTAL" -v on="$ON_TOTAL" 'BEGIN {
  if (off <= 0) { printf "0"; exit }
  printf "%.2f", 100.0 * (on - off) / off
}')"
echo "metrics off ${OFF_TOTAL}s, on ${ON_TOTAL}s, overhead ${OVERHEAD_PCT}%"

# Thread-sweep equality gate: the four widths must produce the identical
# batch assignment (result_hash), or the parallel path is nondeterministic.
extract_field() {
  awk -v field="$2" '
    index($0, "\"bench\": \"thread_sweep\"") == 0 { next }
    {
      pat = "\"" field "\": "
      i = index($0, pat)
      if (i == 0) next
      rest = substr($0, i + length(pat))
      sub(/[,}].*/, "", rest)
      print rest + 0
    }
  ' "$1"
}
HASHES="$(extract_field "$WORK/rows.jsonl" result_hash | sort -u | wc -l)"
if [ "$HASHES" -ne 1 ]; then
  echo "FAIL: thread_sweep result_hash differs across thread counts" >&2
  extract_field "$WORK/rows.jsonl" result_hash >&2
  exit 1
fi
SWEEP_1T="$(awk '
  index($0, "\"bench\": \"thread_sweep\"") == 0 { next }
  index($0, "\"threads\": 1,") == 0 { next }
  {
    i = index($0, "\"total_wall_s\": ")
    rest = substr($0, i + 16); sub(/[,}].*/, "", rest); print rest + 0
  }' "$WORK/rows.jsonl")"
SWEEP_8T="$(awk '
  index($0, "\"bench\": \"thread_sweep\"") == 0 { next }
  index($0, "\"threads\": 8,") == 0 { next }
  {
    i = index($0, "\"total_wall_s\": ")
    rest = substr($0, i + 16); sub(/[,}].*/, "", rest); print rest + 0
  }' "$WORK/rows.jsonl")"
require_number thread_sweep_total_wall_s_1t "$SWEEP_1T"
require_number thread_sweep_total_wall_s_8t "$SWEEP_8T"
HOST_CORES="$(nproc 2>/dev/null || echo 1)"
SPEEDUP="$(awk -v one="$SWEEP_1T" -v eight="$SWEEP_8T" 'BEGIN {
  if (eight <= 0) { printf "0"; exit }
  printf "%.2f", one / eight
}')"
echo "thread sweep: 1t ${SWEEP_1T}s, 8t ${SWEEP_8T}s, speedup ${SPEEDUP}x (host cores: ${HOST_CORES})"

# Keep the previous baseline (if any) so maroon_benchdiff can gate the
# fresh run against it after the overwrite below.
PREVIOUS=""
if [ -f "$OUT" ]; then
  PREVIOUS="$WORK/previous_baseline.json"
  cp "$OUT" "$PREVIOUS"
fi

{
  printf '{\n'
  printf '  "schema": "maroon_bench_runtime_v1",\n'
  printf '  "config": {"bench_scale": 1, "seed": 2015, "benchmark_loops": false},\n'
  printf '  "rows": [\n'
  awk 'NR > 1 { printf ",\n" } { printf "    %s", $0 } END { printf "\n" }' \
    "$WORK/rows.jsonl"
  printf '  ],\n'
  printf '  "overhead": {"bench": "fig7_runtime", "metrics_off_total_s": %s, "metrics_on_total_s": %s, "overhead_pct": %s},\n' \
    "$OFF_TOTAL" "$ON_TOTAL" "$OVERHEAD_PCT"
  printf '  "thread_sweep": {"bench": "thread_sweep", "host_cores": %s, "total_wall_s_1t": %s, "total_wall_s_8t": %s, "speedup_8v1": %s}\n' \
    "$HOST_CORES" "$SWEEP_1T" "$SWEEP_8T" "$SPEEDUP"
  printf '}\n'
} > "$OUT"
echo "wrote $OUT"

if [ -n "$PREVIOUS" ]; then
  echo "== maroon_benchdiff: fresh run vs previous baseline =="
  # set -e makes a regression (exit 1) or IO/schema error (exit 2) fatal.
  "$BENCHDIFF" --baseline="$PREVIOUS" --current="$OUT" \
    --threshold-pct="${MAROON_BENCHDIFF_THRESHOLD_PCT:-100}"
else
  echo "no previous $OUT; skipping benchdiff gate"
fi

echo "== observability smoke: clean corpus link =="
"$CLI" generate --dataset=recruitment --out="$WORK/data" \
  --entities=60 --seed=2015 > /dev/null
"$CLI" link --data="$WORK/data" --entity=entity_0 \
  --metrics-out="$ARTIFACTS/smoke_metrics.json" \
  --trace-out="$ARTIFACTS/smoke_trace.json" \
  --metrics-prom-out="$ARTIFACTS/smoke_metrics.prom" \
  --metrics-jsonl="$ARTIFACTS/smoke_metrics.jsonl" \
  --metrics-every-s=0.5 > /dev/null
if ! grep -q '"traceEvents"' "$ARTIFACTS/smoke_trace.json"; then
  echo "FAIL: $ARTIFACTS/smoke_trace.json has no traceEvents" >&2
  exit 1
fi
if ! grep -q '# TYPE maroon_link_entity_seconds histogram' \
    "$ARTIFACTS/smoke_metrics.prom"; then
  echo "FAIL: $ARTIFACTS/smoke_metrics.prom lacks the per-entity latency histogram" >&2
  exit 1
fi
if ! grep -q '"maroon_metrics_snapshot_v2"' "$ARTIFACTS/smoke_metrics.jsonl"; then
  echo "FAIL: $ARTIFACTS/smoke_metrics.jsonl has no snapshot rows" >&2
  exit 1
fi

status=0
for name in maroon.validation.quarantined_records \
            maroon.validation.quarantined_rows \
            maroon.phase2.degenerate_scores; do
  value="$(counter_value "$ARTIFACTS/smoke_metrics.json" "$name")"
  if [ "$value" -ne 0 ]; then
    echo "FAIL: $name = $value on clean seed data" >&2
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  exit "$status"
fi

echo "wrote $ARTIFACTS/smoke_metrics.json, smoke_trace.json, smoke_metrics.prom, smoke_metrics.jsonl"
echo "run_bench.sh: OK"

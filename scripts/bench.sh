#!/usr/bin/env bash
# Runs the benchmark suite and emits one Google Benchmark JSON file per
# binary under the output directory (default bench-results/).
#
#   scripts/bench.sh                 # all benchmarks, Release build
#   scripts/bench.sh bench_tconc     # a subset, by target name
#   scripts/bench.sh bench_gc_throughput -- \
#       --benchmark_filter=BM_MinorCollect
#                                    # arguments after -- go to every
#                                    # binary run: rerun one benchmark
#                                    # without the whole suite
#   scripts/bench.sh --loadgen       # shard-count scaling sweep of the
#                                    # runtime load driver (1..8 shards,
#                                    # open-loop sessions); one JSON per
#                                    # shard count lands in bench-results/
#   scripts/bench.sh --summarize     # no run: just (re)build the
#                                    # BENCH_<date>.json summary from
#                                    # whatever is in bench-results/
#   BENCH_OUT=/tmp/run1 scripts/bench.sh
#
# Each microbenchmark runs 5 times through --benchmark_repetitions (run
# a binary directly for another count); the summary reports the median
# and its median absolute deviation per benchmark, stamped with the CPU
# model, nproc, build type and git SHA, so two BENCH files can be
# compared against their noise.
#
# Every invocation ends by aggregating the per-binary JSON files into a
# single BENCH_<YYYY-MM-DD>.json at the repo root: one row per
# benchmark with its timing plus any gc_* collector counters, and
# fleet-wide pause percentiles. That file is the snapshot DESIGN.md's
# experiment index points at; commit it when the numbers move.
#
# JSON output (--benchmark_format=json) is the machine-readable record
# DESIGN.md's experiment index expects; pass the files to
# benchmark/tools/compare.py for A/B runs.
#
# GC-heavy benchmarks attach a GcPauseRecorder (bench/BenchCommon.h)
# and publish collector counters into each entry's "counters" object:
# gc_* totals, gc_pause_{p50,p99,p999,max}_ns HDR percentiles, and —
# from loadgen — latency_op_*, mmu_*, slo_*, alloc_sampled_sites and
# executor_* keys. The summarizer (scripts/bench_summarize.py) derives
# every key from the JSON itself, so new counters appear in
# BENCH_<date>.json without editing any script; e.g.:
#   jq '.benchmarks[] | {name, gc_pause_p99_ns: .gc_pause_p99_ns}'

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-bench-results}"
DIR="${BENCH_BUILD:-build-bench}"

summarize() {
  python3 scripts/bench_summarize.py "$OUT" --build-dir "$DIR"
}

if [ "${1:-}" = "--summarize" ]; then
  summarize
  exit 0
fi

if [ "${1:-}" = "--loadgen" ]; then
  # Shard-count scaling sweep: the same per-shard session load at 1, 2,
  # 4, 8 shards, open-loop (think time between sessions) so aggregate
  # throughput reflects shard parallelism rather than core count —
  # see EXPERIMENTS.md's shard-scaling walkthrough for reading the
  # numbers on small machines. Each run's JSON is Google-Benchmark-
  # shaped, so the summarize step folds the gc_* counters and pause
  # percentiles in alongside the microbenchmarks.
  LG_SESSIONS="${LG_SESSIONS:-16}"
  LG_OPS="${LG_OPS:-300}"
  LG_THINK_US="${LG_THINK_US:-1000}"
  LG_SEED="${LG_SEED:-11}"
  cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$DIR" -j --target loadgen >/dev/null
  mkdir -p "$OUT"
  for shards in 1 2 4 8; do
    echo "==> loadgen: $shards shard(s)"
    "$DIR/tools/loadgen/loadgen" \
      --shards "$shards" --sessions "$LG_SESSIONS" --ops "$LG_OPS" \
      --seed "$LG_SEED" --think-time-us "$LG_THINK_US" --fail-rate 5 \
      --json "$OUT/loadgen_shards${shards}.json"
  done
  # Scoped A/B leg: the same 4-shard load with every session inside a
  # request scope. Diff loadgen_shards4.json against this file's
  # gc_collections / gc_pause_* / gc_scope_* keys (EXPERIMENTS.md's
  # scoped-vs-unscoped walkthrough reads the pair).
  echo "==> loadgen: 4 shards, scoped sessions"
  "$DIR/tools/loadgen/loadgen" \
    --shards 4 --sessions "$LG_SESSIONS" --ops "$LG_OPS" \
    --seed "$LG_SEED" --think-time-us "$LG_THINK_US" --fail-rate 5 \
    --scoped --json "$OUT/loadgen_shards4_scoped.json"
  # Donation A/B leg: the same 8-shard load with bulk message payloads
  # (--payload-bytes), deep-copied vs segment-donated. Diff the pair's
  # throughput_ops_per_sec / latency_op_* / transfer_* keys
  # (EXPERIMENTS.md's zero-copy transfer walkthrough reads them).
  LG_PAYLOAD="${LG_PAYLOAD:-16384}"
  for donate in off on; do
    echo "==> loadgen: 8 shards, ${LG_PAYLOAD}B payloads, donate $donate"
    "$DIR/tools/loadgen/loadgen" \
      --shards 8 --sessions "$LG_SESSIONS" --ops "$LG_OPS" \
      --seed "$LG_SEED" --think-time-us "$LG_THINK_US" --fail-rate 5 \
      --payload-bytes "$LG_PAYLOAD" --donate "$donate" \
      --json "$OUT/loadgen_shards8_donate_${donate}.json"
  done
  echo "==> results in $OUT/"
  summarize
  exit 0
fi

cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$DIR" -j >/dev/null

BENCHES=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  BENCHES+=("$1")
  shift
done
[ $# -gt 0 ] && shift # The "--" itself.
EXTRA_ARGS=("$@")
if [ ${#BENCHES[@]} -eq 0 ]; then
  for bin in "$DIR"/bench/bench_*; do
    [ -x "$bin" ] && BENCHES+=("$(basename "$bin")")
  done
fi

mkdir -p "$OUT"
for name in "${BENCHES[@]}"; do
  bin="$DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "no such benchmark binary: $bin" >&2
    exit 2
  fi
  echo "==> $name"
  "$bin" --benchmark_format=json --benchmark_out="$OUT/$name.json" \
         --benchmark_out_format=json --benchmark_repetitions=5 \
         ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}
done

echo "==> results in $OUT/"
summarize

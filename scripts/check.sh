#!/usr/bin/env bash
# Full local gate: everything CI runs, in one command.
#
#   scripts/check.sh            # Release build + tests + rootcheck
#                               # + the mutant gate (scripts/mutants.sh)
#   scripts/check.sh --stress   # additionally run the suite with
#                               # GENGC_STRESS=ON (collect-on-every-
#                               # allocation + fromspace poisoning)
#   scripts/check.sh --asan     # additionally run the suite under
#                               # AddressSanitizer + UBSan
#   scripts/check.sh --tsan     # additionally run the suite under
#                               # ThreadSanitizer (the shard runtime's
#                               # cross-thread edges: mailboxes,
#                               # executor, shutdown ordering)
#   scripts/check.sh --all      # all of the above
#
# Each mode uses its own build tree under build-check/ so switching
# modes never poisons an incremental build.

set -euo pipefail
cd "$(dirname "$0")/.."

STRESS=0
ASAN=0
TSAN=0
for arg in "$@"; do
  case "$arg" in
    --stress) STRESS=1 ;;
    --asan) ASAN=1 ;;
    --tsan) TSAN=1 ;;
    --all) STRESS=1; ASAN=1; TSAN=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

run_suite() {
  local name="$1"; shift
  local dir="build-check/$name"
  echo "==> [$name] configure: $*"
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j >/dev/null
  echo "==> [$name] test"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  # Telemetry smoke: a traced run must produce a Chrome trace_event
  # JSON file that a strict parser accepts.
  echo "==> [$name] telemetry smoke"
  GENGC_GC_LOG=1 GENGC_GC_TRACE="$dir/smoke-trace.json" \
    "$dir/examples/quickstart" >/dev/null
  python3 -m json.tool "$dir/smoke-trace.json" >/dev/null
  rm -f "$dir/smoke-trace.json"
  # Differential fuzz smoke: the fixed-seed corpus cross-checks every
  # collection against the shadow-model oracle (also runs inside CTest
  # as gcfuzz.seed_corpus; repeated here so a failure prints the
  # shrunk reproducer trace prominently at the end of the gate).
  echo "==> [$name] gcfuzz smoke"
  "$dir/tools/gcfuzz/gcfuzz" --seed-corpus --out "$dir"
  # Engine differential: random whole Scheme programs executed on the
  # tree-walking interpreter and on the bytecode VM, each on a fresh
  # heap, and compared output-for-output.
  echo "==> [$name] engine differential"
  "$dir/tools/gcfuzz/gcfuzz" --vm-diff 30 --out "$dir"
  # Scoped corpus: the trace alphabet gains request-scope open/close/
  # alloc ops and every closeScope is cross-checked against the
  # scope-aware shadow model; then the engine differential with half
  # the forms inside (call-in-new-scope ...).
  echo "==> [$name] scoped corpus"
  "$dir/tools/gcfuzz/gcfuzz" --seed-corpus --scoped on --out "$dir"
  "$dir/tools/gcfuzz/gcfuzz" --vm-diff 30 --scoped on --out "$dir"
  # Donation corpus: donate-send/receive/drop in the alphabet, the
  # shadow model's snapshot/adopt bookkeeping as the oracle, and the
  # exchange arena's donated-segment ownership audited at every
  # collection and at end of trace.
  echo "==> [$name] donation corpus"
  "$dir/tools/gcfuzz/gcfuzz" --seed-corpus --donation on --out "$dir"
  # With scopes open as well: adoption then interns fixup symbols into
  # an open scope and records their containers as escapes, a path only
  # this combination reaches.
  "$dir/tools/gcfuzz/gcfuzz" --seed-corpus --scoped on --donation on \
    --out "$dir"
  # Canary: a deliberately leaked scope escape must be caught by the
  # scope-aware oracle — a zero exit means scope closes are unchecked.
  echo "==> [$name] scope-leak canary"
  if "$dir/tools/gcfuzz/gcfuzz" --traces 40 --config paper --scoped on \
       --fault leak-scope-escape --no-shrink --out "$dir" \
       >/dev/null 2>&1; then
    echo "[$name] scope-leak canary was NOT caught" >&2
    exit 1
  fi
  # Canary: with one remembered-set entry deliberately dropped at a
  # minor collection, the reachability oracle must report a divergence.
  # A zero exit means the remembered-set invariant is unchecked.
  echo "==> [$name] drop-remembered canary"
  if "$dir/tools/gcfuzz/gcfuzz" --traces 40 --config paper \
       --fault drop-remembered --no-shrink --out "$dir" \
       >/dev/null 2>&1; then
    echo "[$name] drop-remembered canary was NOT caught" >&2
    exit 1
  fi
  # Canary: donated segments deliberately leaked on drop must unbalance
  # the exchange arena's ownership audit and FAIL the run. A zero exit
  # means donated-segment ownership is not actually being checked.
  echo "==> [$name] donation-leak canary"
  if "$dir/tools/gcfuzz/gcfuzz" --traces 40 --config paper --scoped on \
       --donation on --fault leak-donated-segment --no-shrink \
       --out "$dir" >/dev/null 2>&1; then
    echo "[$name] donation-leak canary was NOT caught" >&2
    exit 1
  fi
  # Shard-runtime accounting smoke: eight private heaps, cross-shard
  # messages, background finalization with injected transient
  # failures; a nonzero exit means a resource went unaccounted (and
  # under --tsan, any data race fails the run).
  echo "==> [$name] loadgen smoke"
  "$dir/tools/loadgen/loadgen" --shards 8 --sessions 8 --ops 200 \
    --seed 11 --fail-rate 5 >/dev/null
  # The same accounting audit with every session inside a request
  # scope: guardian tickets delivered by scope closes instead of
  # collections must still balance the books on all 4 shards.
  echo "==> [$name] loadgen scoped smoke"
  "$dir/tools/loadgen/loadgen" --shards 4 --sessions 8 --ops 200 \
    --seed 11 --fail-rate 5 --scoped >/dev/null
  # Zero-copy donation smoke: eight shards exchanging bulk payloads by
  # segment donation; the same resource accounting must balance, and
  # the run must actually donate (nonzero transfer counters in JSON).
  echo "==> [$name] loadgen donation smoke"
  "$dir/tools/loadgen/loadgen" --shards 8 --sessions 8 --ops 200 \
    --seed 11 --fail-rate 5 --payload-bytes 16384 --donate on \
    --json "$dir/loadgen-donate.json" >/dev/null
  grep -q '"transfer_donated_segments": [1-9]' "$dir/loadgen-donate.json"
  rm -f "$dir/loadgen-donate.json"
  # Observability smoke: a 2-shard run with causal tracing, heap
  # profiling, and an SLO target. The merged fleet trace must be strict
  # JSON containing flow events (the cross-shard causal arrows), the
  # collapsed-stack profile must have sampled at least one site, and
  # the bench JSON must carry a nonzero sampled-site count.
  echo "==> [$name] observability smoke"
  "$dir/tools/loadgen/loadgen" --shards 2 --sessions 8 --ops 300 \
    --seed 7 --trace "$dir/fleet-trace.json" \
    --profile "$dir/heap.folded" --slo-max-pause-us 500000 \
    --json "$dir/loadgen-obs.json" >/dev/null
  python3 -m json.tool "$dir/fleet-trace.json" >/dev/null
  python3 -m json.tool "$dir/loadgen-obs.json" >/dev/null
  grep -q '"ph":"s"' "$dir/fleet-trace.json"
  grep -q '^gengc;' "$dir/heap.folded"
  grep -q '"alloc_sampled_sites": [1-9]' "$dir/loadgen-obs.json"
  rm -f "$dir/fleet-trace.json" "$dir/heap.folded" "$dir/loadgen-obs.json"
  # Profiler overhead gate: allocation-site sampling at the default
  # 64 KiB interval must cost <= 2% on the young-allocation microbench.
  # Release only — sanitizer and stress builds distort the ratio. Many
  # short interleaved repetitions + min-of-reps in the checker keep the
  # comparison robust to machine noise, and up to three attempts absorb
  # transient load spikes (a real regression persists at the floor and
  # fails every attempt).
  if [ "$name" = release ]; then
    echo "==> [$name] profiler overhead gate"
    local overhead_ok=0 attempt
    for attempt in 1 2 3; do
      "$dir/bench/bench_ablation" --benchmark_filter='BM_AllocYoung' \
        --benchmark_repetitions=12 --benchmark_min_time=0.15 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_format=json \
        > "$dir/alloc-young.json" 2>/dev/null
      if python3 scripts/check_profiler_overhead.py \
           "$dir/alloc-young.json" 2.0; then
        overhead_ok=1
        break
      fi
      echo "[$name] overhead gate attempt $attempt over budget, retrying"
    done
    rm -f "$dir/alloc-young.json"
    if [ "$overhead_ok" != 1 ]; then
      echo "[$name] profiler overhead gate failed on all attempts" >&2
      exit 1
    fi
  fi
  # Executor and port-table interleavings: batch claim and retire race
  # the submitters, opens publish ports while other threads write and
  # close earlier ones, and which interleavings one pass hits depends
  # on timing.
  if [ "$name" = tsan ]; then
    echo "==> [$name] executor repeat"
    "$dir/tests/runtime/runtime_tests" --gtest_filter='ExecutorTest.*' \
      --gtest_repeat=20 >/dev/null
    echo "==> [$name] port table repeat"
    "$dir/tests/io/io_tests" \
      --gtest_filter='PortTableTest.*:GuardedPortsTest.*' \
      --gtest_repeat=20 >/dev/null
  fi
  # Summarizer key-derivation fixture (also runs inside CTest).
  python3 tests/scripts/bench_summarize_test.py .
}

# The rootcheck lint needs no build at all; fail fast on it.
echo "==> rootcheck"
python3 tools/rootcheck/rootcheck.py --root .
python3 tools/rootcheck/rootcheck.py --self-test tools/rootcheck/fixtures

run_suite release -DCMAKE_BUILD_TYPE=Release

# Standing mutant gate: each tests/mutants/*.patch must be caught by the
# check its header names (its own build tree under build-check/).
echo "==> mutant gate"
scripts/mutants.sh

if [ "$STRESS" = 1 ]; then
  run_suite stress -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGENGC_STRESS=ON
fi

if [ "$ASAN" = 1 ]; then
  run_suite asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGENGC_SAN=address,undefined
fi

if [ "$TSAN" = 1 ]; then
  run_suite tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGENGC_SAN=thread
fi

echo "==> all checks passed"

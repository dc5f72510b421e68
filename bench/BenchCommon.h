//===- bench/BenchCommon.h - Shared benchmark scaffolding ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment benchmarks. Each bench binary
/// regenerates one claim/figure series from DESIGN.md's experiment
/// index; EXPERIMENTS.md records the measured outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_BENCH_BENCHCOMMON_H
#define GENGC_BENCH_BENCHCOMMON_H

#include <cstddef>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "telemetry/LatencyRecorder.h"

namespace gengc {

/// A heap configuration sized for benchmarking: manual collection only,
/// so each benchmark controls exactly when GC work happens.
inline HeapConfig benchConfig() {
  HeapConfig C;
  C.ArenaBytes = 512u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

/// Ages everything currently live into the oldest generation.
inline void ageHeapFully(Heap &H) {
  for (unsigned G = 0; G + 1 < H.config().Generations; ++G)
    H.collect(G);
}

/// Records every collection's pause through a post-GC hook (into an HDR
/// LatencyRecorder — fixed memory however many collections run) and
/// publishes GC totals plus pause percentiles as Google Benchmark custom
/// counters, so scripts/bench.sh captures them in bench-results/*.json.
/// Construct it right after the Heap; call addGcCounters() once, after
/// the timing loop.
class GcPauseRecorder {
public:
  explicit GcPauseRecorder(Heap &H) : H(H) {
    H.addPostGcHook([this](Heap &, const GcStats &S) {
      Pauses.record(S.DurationNanos);
    });
  }

  void addGcCounters(benchmark::State &State) const {
    auto C = [](uint64_t N) {
      return benchmark::Counter(static_cast<double>(N));
    };
    forEachGcTotalsExport(H.totals(), [&](const std::string &Key,
                                          uint64_t N) {
      State.counters[Key] = C(N);
    });
    // Store-barrier traffic: read from the heap's monotonic counters,
    // not GcTotals — stores after the last collection would
    // otherwise be invisible (manual-collect benches may never GC).
    State.counters["gc_barriers_executed"] = C(H.barriersExecuted());
    State.counters["gc_barriers_elided"] = C(H.barriersElided());
    if (Pauses.count() == 0)
      return;
    for (const auto &KV : latencyCounters("gc_pause", Pauses))
      State.counters[KV.first] = C(KV.second);
  }

  size_t pausesRecorded() const {
    return static_cast<size_t>(Pauses.count());
  }
  const LatencyRecorder &pauses() const { return Pauses; }

private:
  Heap &H;
  LatencyRecorder Pauses;
};

} // namespace gengc

#endif // GENGC_BENCH_BENCHCOMMON_H

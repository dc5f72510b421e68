//===- bench/bench_gc_throughput.cpp - Experiment C8 ---------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// C8 -- Section 1's cost model of the substrate itself: "Modern garbage
// collectors run in time proportional to the amount of data retained in
// the system rather than the amount freed."
//
// Series:
//   CollectionVsLiveData/N  -- minor GC time against N live pairs
//                              (grows with N: retained data).
//   CollectionVsGarbage/N   -- minor GC time against N dead pairs with a
//                              tiny live set (flat: freed data is never
//                              touched by a copying collector).
//   AllocationThroughput    -- raw bump-allocation rate.
//   MinorVsFullPause        -- pause comparison on a mixed-age heap.
//   ScavengeMixed           -- serial scavenge ns per copied object.
//   MinorCollectWithSymbols/N -- minor GC time with N old interned
//                              symbols alive (flat: a minor collection
//                              visits only generation 0's symbol list).
//
//===----------------------------------------------------------------------===//

#include <string>

#include "BenchCommon.h"

using namespace gengc;

namespace {

void BM_CollectionVsLiveData(benchmark::State &State) {
  const int64_t LivePairs = State.range(0);
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root List(H, Value::nil());
  for (auto _ : State) {
    State.PauseTiming();
    List = Value::nil();
    H.collectFull(); // Reset: drop the previous round's copies.
    for (int64_t I = 0; I != LivePairs; ++I)
      List = H.cons(Value::fixnum(I), List.get());
    State.ResumeTiming();
    H.collectMinor(); // Copies all LivePairs survivors.
  }
  State.counters["live_pairs"] =
      benchmark::Counter(static_cast<double>(LivePairs));
  State.counters["bytes_copied"] =
      benchmark::Counter(static_cast<double>(H.lastStats().BytesCopied));
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_CollectionVsLiveData)
    ->RangeMultiplier(4)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);

void BM_CollectionVsGarbage(benchmark::State &State) {
  const int64_t DeadPairs = State.range(0);
  Heap H(benchConfig());
  Root Live(H, H.cons(Value::fixnum(1), Value::nil()));
  for (auto _ : State) {
    State.PauseTiming();
    for (int64_t I = 0; I != DeadPairs; ++I)
      H.cons(Value::fixnum(I), Value::nil()); // Immediately dead.
    State.ResumeTiming();
    H.collectMinor(); // Time must not grow with DeadPairs.
  }
  State.counters["dead_pairs"] =
      benchmark::Counter(static_cast<double>(DeadPairs));
}
BENCHMARK(BM_CollectionVsGarbage)
    ->RangeMultiplier(4)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);

void BM_AllocationThroughput(benchmark::State &State) {
  Heap H(benchConfig());
  int64_t Since = 0;
  for (auto _ : State) {
    Value P = H.cons(Value::fixnum(1), Value::fixnum(2));
    benchmark::DoNotOptimize(P);
    if (++Since == 1 << 16) { // Keep the young generation bounded.
      State.PauseTiming();
      H.collectMinor();
      Since = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
  State.SetBytesProcessed(State.iterations() * 16);
}
BENCHMARK(BM_AllocationThroughput);

// Pause-time shape: a heap with a large old region and a small young
// region. Minor pauses must be small and independent of the old data;
// full pauses are proportional to all retained data.
void BM_MinorPauseMixedHeap(benchmark::State &State) {
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root OldList(H, Value::nil());
  for (int64_t I = 0; I != 262144; ++I)
    OldList = H.cons(Value::fixnum(I), OldList.get());
  ageHeapFully(H);
  Root Young(H, Value::nil());
  for (auto _ : State) {
    State.PauseTiming();
    Young = Value::nil();
    for (int64_t I = 0; I != 1024; ++I)
      Young = H.cons(Value::fixnum(I), Young.get());
    State.ResumeTiming();
    H.collectMinor();
  }
  State.counters["old_pairs"] = benchmark::Counter(262144);
  State.counters["young_pairs"] = benchmark::Counter(1024);
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_MinorPauseMixedHeap)->Unit(benchmark::kMicrosecond);

// The reference full-collection pause: every iteration copies a
// 262,144-pair list that lives in the oldest generation.
void BM_FullPauseMixedHeap(benchmark::State &State) {
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root OldList(H, Value::nil());
  for (int64_t I = 0; I != 262144; ++I)
    OldList = H.cons(Value::fixnum(I), OldList.get());
  ageHeapFully(H);
  for (auto _ : State)
    H.collectFull();
  State.counters["old_pairs"] = benchmark::Counter(262144);
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_FullPauseMixedHeap)->Unit(benchmark::kMicrosecond);

// Serial scavenge cost per copied object on a mixed graph: 16,384
// records, each holding a 4-element vector, a string and a weak pair
// back to the record, strung on a list. Every full collection copies
// all 81,920 objects through the forward/sweep helpers. The roots,
// remembered-sets and copy phases are that scavenge, so
// ns_per_object_copied is their time over the objects copied; the
// phases after it (weak pairs, reclaim, ...) are not per-copy work.
void BM_ScavengeMixed(benchmark::State &State) {
  uint64_t ScavengeNanos = 0, Copied = 0; // Outlive H, whose hook adds.
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root Graph(H, Value::nil());
  for (int64_t I = 0; I != 16384; ++I) {
    Root Rec(H, H.makeRecord(Value::fixnum(I), 3, Value::nil()));
    Root Field(H, H.makeVector(4, Value::fixnum(I)));
    H.recordSet(Rec.get(), 0, Field.get());
    Field = H.makeString("scavenge");
    H.recordSet(Rec.get(), 1, Field.get());
    Field = H.weakCons(Rec.get(), Value::nil());
    H.recordSet(Rec.get(), 2, Field.get());
    Graph = H.cons(Rec.get(), Graph.get());
  }
  ageHeapFully(H);
  H.addPostGcHook([&](Heap &, const GcStats &S) {
    ScavengeNanos += S.Phases[GcPhase::Roots] +
                     S.Phases[GcPhase::RememberedSets] +
                     S.Phases[GcPhase::Copy];
    Copied += S.ObjectsCopied;
  });
  for (auto _ : State)
    H.collectFull();
  State.counters["objects_copied_per_gc"] = benchmark::Counter(
      static_cast<double>(Copied) / static_cast<double>(State.iterations()));
  State.counters["ns_per_object_copied"] = benchmark::Counter(
      static_cast<double>(ScavengeNanos) / static_cast<double>(Copied));
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_ScavengeMixed)->Unit(benchmark::kMicrosecond);

// The weak symbol table in a minor collection: N interned symbols, all
// alive and aged into the oldest generation, beside a small young heap
// that holds one freshly interned, dead symbol per round. Only that one
// is subject to the collection, so neither the pause nor the
// symbol-table phase (symbol_table_ns_per_gc) should grow with N. One
// old vector holds the symbols, so the root scan does not grow either.
void BM_MinorCollectWithSymbols(benchmark::State &State) {
  const int64_t Symbols = State.range(0);
  uint64_t SymbolNanos = 0; // Outlives H, whose hook adds.
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root Old(H, H.makeVector(static_cast<size_t>(Symbols), Value::nil()));
  for (int64_t I = 0; I != Symbols; ++I) {
    Root Sym(H, H.intern("old-symbol-" + std::to_string(I)));
    H.vectorSet(Old.get(), static_cast<size_t>(I), Sym.get());
  }
  ageHeapFully(H);
  H.addPostGcHook([&](Heap &, const GcStats &S) {
    if (S.CollectedGeneration == 0)
      SymbolNanos += S.Phases[GcPhase::SymbolTable];
  });
  Root Young(H, Value::nil());
  int64_t Round = 0;
  for (auto _ : State) {
    State.PauseTiming();
    // Every 256th round empties generation 1 of the promoted young
    // lists, so the timed collections copy into pages already touched
    // however many iterations the benchmark runs.
    if (++Round % 256 == 0)
      H.collect(1);
    Young = Value::nil();
    for (int64_t I = 0; I != 64; ++I)
      Young = H.cons(Value::fixnum(I), Young.get());
    H.intern("young-symbol");
    State.ResumeTiming();
    H.collectMinor();
  }
  State.counters["old_symbols"] =
      benchmark::Counter(static_cast<double>(Symbols));
  State.counters["symbol_table_ns_per_gc"] = benchmark::Counter(
      static_cast<double>(SymbolNanos) /
      static_cast<double>(State.iterations()));
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_MinorCollectWithSymbols)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();

//===- bench/bench_ablation.cpp - Design-choice ablations ----------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Ablations for the implementation choices DESIGN.md calls out:
//
//  * write-barrier cost -- the filter sequence (heap value? young
//    container? young value?) on stores into young vs. old containers;
//  * the guardian fixpoint loop -- chains of guardians registered with
//    guardians force extra pend-final rounds; cost per round;
//  * the weak-pair second pass -- scales with weak pairs copied this
//    cycle plus mutated old weak pairs, not with all weak pairs.
//  * environment-frame stores -- a VM workload whose mutator store mix
//    is dominated by frame-slot fills, every one through the barrier.
//  * the finalization executor hand-off -- a burst of tickets from one
//    submitter to the background worker, per ticket and per burst.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Guardian.h"
#include "gc/ScopedGeneration.h"
#include "runtime/FinalizationExecutor.h"
#include "scheme/Interpreter.h"
#include "scheme/VM.h"

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

using namespace gengc;

namespace {

//===--- Write barrier -----------------------------------------------------===//

void BM_StoreIntoYoungContainer(benchmark::State &State) {
  Heap H(benchConfig());
  Root P(H, H.cons(Value::nil(), Value::nil()));
  Root V(H, H.cons(Value::fixnum(1), Value::nil()));
  // Both generation 0: barrier exits at the container-generation check.
  for (auto _ : State)
    H.setCar(P.get(), V.get());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StoreIntoYoungContainer);

void BM_StoreOldToOld(benchmark::State &State) {
  Heap H(benchConfig());
  Root P(H, H.cons(Value::nil(), Value::nil()));
  Root V(H, H.cons(Value::fixnum(1), Value::nil()));
  ageHeapFully(H);
  // Old container, old value: barrier exits at the generation compare.
  for (auto _ : State)
    H.setCar(P.get(), V.get());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StoreOldToOld);

void BM_StoreOldToYoung(benchmark::State &State) {
  Heap H(benchConfig());
  Root P(H, H.cons(Value::nil(), Value::nil()));
  ageHeapFully(H);
  Root V(H, H.cons(Value::fixnum(1), Value::nil()));
  // The expensive path: remembered-set insert (deduplicated, so after
  // the first store it is a hash probe).
  for (auto _ : State)
    H.setCar(P.get(), V.get());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StoreOldToYoung);

void BM_StoreImmediate(benchmark::State &State) {
  Heap H(benchConfig());
  Root P(H, H.cons(Value::nil(), Value::nil()));
  ageHeapFully(H);
  // Immediates exit the barrier at the first test.
  for (auto _ : State)
    H.setCar(P.get(), Value::fixnum(7));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StoreImmediate);

//===--- Allocation-profiler overhead ---------------------------------------===//

// The allocation fast path with the sampled site profiler off (Arg 0)
// and on at the default rate (Arg 1). The enabled cost is the countdown
// subtract-and-test per allocation plus one recordSample per 64 KiB;
// CI holds the on/off delta to <= 2% (scripts/check.sh).
void BM_AllocYoung(benchmark::State &State) {
  const bool Profile = State.range(0) != 0;
  HeapConfig C = benchConfig();
  C.AutoCollect = true; // Pure young garbage; let minor GCs reclaim.
  if (Profile)
    C.ProfileSampleBytes = HeapConfig::DefaultProfileSampleBytes;
  Heap H(C);
  for (auto _ : State) {
    Value P = H.cons(Value::fixnum(1), Value::nil());
    benchmark::DoNotOptimize(P);
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["profile_enabled"] =
      benchmark::Counter(Profile ? 1.0 : 0.0);
  State.counters["profile_samples"] = benchmark::Counter(
      static_cast<double>(H.allocProfiler().totalSamples()));
}
BENCHMARK(BM_AllocYoung)->Arg(0)->Arg(1);

// An environment-frame-heavy VM workload: every loop iteration enters a
// letrec scope (enter-scope-undef + local-sets) and closes over it, so
// frame-slot stores dominate the mutator's store mix; each pays the
// write barrier, and gc_barriers_executed lands in the bench JSON via
// GcPauseRecorder.
const char *EnvChurnProgram =
    "(define (churn n)"
    "  (let loop ([i 0] [acc 0])"
    "    (if (= i n) acc"
    "        (letrec ([a i]"
    "                 [b (+ a 1)]"
    "                 [c (lambda () (+ a b))])"
    "          (loop (+ i 1) (+ acc (c)))))))";

void BM_VmEnvFrameChurn(benchmark::State &State) {
  HeapConfig C = benchConfig();
  C.AutoCollect = true;
  Heap H(C);
  GcPauseRecorder Recorder(H);
  Interpreter I(H);
  VirtualMachine VM(I);
  VM.evalString(EnvChurnProgram);
  for (auto _ : State)
    benchmark::DoNotOptimize(VM.evalString("(churn 20000)"));
  Recorder.addGcCounters(State);
}
BENCHMARK(BM_VmEnvFrameChurn)->Unit(benchmark::kMillisecond);

//===--- Guardian fixpoint loop ---------------------------------------------===//

// A chain: guardian[i]'s tconc is registered with guardian[i+1], and
// only the head object is otherwise dead. Each pend-final round can
// only salvage one link, so the loop runs Depth rounds -- the worst
// case for the Section 4 algorithm.
void BM_GuardianChainCollapse(benchmark::State &State) {
  const int64_t Depth = State.range(0);
  uint64_t LoopRounds = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Heap H(benchConfig());
    // Build the chain. guardians[0] guards the payload; each tconc is
    // guarded by the next guardian; only the LAST guardian is rooted.
    std::vector<std::unique_ptr<Guardian>> Chain;
    Chain.reserve(static_cast<size_t>(Depth));
    for (int64_t I = 0; I != Depth; ++I)
      Chain.push_back(std::make_unique<Guardian>(H));
    {
      Root Payload(H, H.cons(Value::fixnum(1), Value::nil()));
      Chain[0]->protect(Payload.get());
    }
    for (int64_t I = 0; I + 1 != Depth; ++I)
      (*Chain[static_cast<size_t>(I + 1)])
          .protect(Chain[static_cast<size_t>(I)]->tconcValue());
    // Drop all but the final guardian: its accessibility must cascade
    // back through every link during one collection.
    std::unique_ptr<Guardian> Last = std::move(Chain.back());
    Chain.pop_back();
    Chain.clear();
    State.ResumeTiming();
    H.collectMinor();
    State.PauseTiming();
    LoopRounds += H.lastStats().GuardianLoopIterations;
    State.ResumeTiming();
  }
  State.counters["chain_depth"] =
      benchmark::Counter(static_cast<double>(Depth));
  State.counters["fixpoint_rounds_per_gc"] = benchmark::Counter(
      static_cast<double>(LoopRounds) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_GuardianChainCollapse)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Unit(benchmark::kMicrosecond);

//===--- Weak-pair pass ------------------------------------------------------===//

void BM_WeakPassVsOldWeakPairs(benchmark::State &State) {
  // N weak pairs parked old and untouched: the weak pass must not
  // examine them during a minor collection. They hang off a single
  // rooted spine so root scanning stays O(1) and the measurement
  // isolates the weak pass itself.
  Heap H(benchConfig());
  Root Spine(H, Value::nil());
  const int64_t N = State.range(0);
  for (int64_t I = 0; I != N; ++I) {
    Root W(H, H.weakCons(Value::fixnum(I), Value::nil()));
    Spine = H.cons(W.get(), Spine.get());
  }
  ageHeapFully(H);
  uint64_t Examined = 0;
  for (auto _ : State) {
    H.collectMinor();
    Examined += H.lastStats().WeakPairsExamined;
  }
  State.counters["old_weak_pairs"] =
      benchmark::Counter(static_cast<double>(N));
  State.counters["examined_per_gc"] = benchmark::Counter(
      static_cast<double>(Examined) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_WeakPassVsOldWeakPairs)
    ->RangeMultiplier(8)
    ->Range(1024, 65536);

void BM_WeakPassVsMutatedOldWeakPairs(benchmark::State &State) {
  // M old weak pairs are re-pointed at young data before each minor
  // collection: the weak pass examines exactly those M.
  Heap H(benchConfig());
  RootVector Pairs(H);
  const int64_t M = State.range(0);
  for (int64_t I = 0; I != M; ++I)
    Pairs.push_back(H.weakCons(Value::nil(), Value::nil()));
  ageHeapFully(H);
  Root Young(H, Value::nil());
  uint64_t Examined = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Young = H.cons(Value::fixnum(1), Value::nil());
    for (int64_t I = 0; I != M; ++I)
      H.setCar(Pairs[static_cast<size_t>(I)], Young.get());
    State.ResumeTiming();
    H.collectMinor();
    Examined += H.lastStats().WeakPairsExamined;
  }
  State.counters["mutated_old_weak_pairs"] =
      benchmark::Counter(static_cast<double>(M));
  State.counters["examined_per_gc"] = benchmark::Counter(
      static_cast<double>(Examined) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_WeakPassVsMutatedOldWeakPairs)
    ->RangeMultiplier(8)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

//===--- Request-scoped ephemeral generations (DESIGN.md §12) --------------===//

// The request-churn ablation: a server-shaped workload where each
// "request" builds a few hundred objects, publishes one result into a
// long-lived cache, and drops the rest. Arg 0 runs the classic
// generational schedule (minor collections triggered by the gen-0
// budget must copy every request's live-at-that-instant garbage);
// Arg 1 wraps each request in a ScopedExtent, so only the escaping
// result is ever traced and the rest of the request's allocation is
// reclaimed untraced at close. The headline numbers are gc_collections
// / gc_total_pause_ns (down) against scope_bytes_reclaimed (up).
void BM_ScopedRequestChurn(benchmark::State &State) {
  const bool Scoped = State.range(0) != 0;
  HeapConfig C = benchConfig();
  C.AutoCollect = true;
  // A small gen-0 budget so the unscoped schedule actually pays for the
  // request garbage with minor collections, as a loaded server would.
  C.Gen0CollectBytes = 256u * 1024;
  Heap H(C);
  GcPauseRecorder Pauses(H);
  constexpr size_t CacheSlots = 64;
  Root Cache(H, H.makeVector(CacheSlots, Value::falseV()));
  uint64_t Request = 0;
  for (auto _ : State) {
    std::optional<ScopedExtent> Extent;
    if (Scoped)
      Extent.emplace(H);
    {
      Root Local(H, Value::nil());
      for (int I = 0; I != 300; ++I)
        Local = H.cons(Value::fixnum(I), Local.get());
      // The request's one survivor: a small summary record published
      // into the cache through the barriered store (the escape).
      Root Summary(H, H.cons(Value::fixnum(static_cast<intptr_t>(Request)),
                             pairCar(Local.get())));
      H.vectorSet(Cache.get(), Request % CacheSlots, Summary.get());
    }
    ++Request;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Request));
  Pauses.addGcCounters(State);
  // loadgen's gc_scope_* keys (the same helper), so the summarizer folds
  // these alongside loadgen runs; "scoped" itself stays per-row (the /0
  // vs /1 arg already names the mode).
  State.counters["scoped"] = benchmark::Counter(Scoped ? 1.0 : 0.0);
  forEachScopeTotalsExport(H.scopeTotals(), [&](const std::string &Key,
                                                uint64_t N) {
    State.counters[Key] = benchmark::Counter(static_cast<double>(N));
  });
}
BENCHMARK(BM_ScopedRequestChurn)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

//===--- Finalization executor hand-off ------------------------------------===//

// One thread submits a burst of N tickets to a live executor whose action
// spins for about 500 ns, then waits for the executor to go idle: the
// shape of a shard's guardian drain. What a burst costs beyond N x 500 ns
// is the hand-off, where the submitter and the worker take turns at the
// executor's one lock.
void BM_TicketBurst(benchmark::State &State) {
  const int64_t N = State.range(0);
  runtime::FinalizationExecutor Exec;
  const auto Q = Exec.registerQueue(
      "spin", [](const runtime::FinalizationTicket &) {
        const auto Until =
            std::chrono::steady_clock::now() + std::chrono::nanoseconds(500);
        while (std::chrono::steady_clock::now() < Until) {
        }
        return true;
      });
  const auto Start = std::chrono::steady_clock::now();
  for (auto _ : State) {
    for (int64_t I = 0; I != N; ++I)
      benchmark::DoNotOptimize(Exec.submit(Q, static_cast<intptr_t>(I)));
    Exec.waitIdle();
  }
  const double Nanos = std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  Exec.drainAndStop();
  const double Bursts = static_cast<double>(State.iterations());
  State.counters["ns_per_burst"] = benchmark::Counter(Nanos / Bursts);
  State.counters["ns_per_ticket"] =
      benchmark::Counter(Nanos / (Bursts * static_cast<double>(N)));
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_TicketBurst)->Arg(1)->Arg(16)->Arg(64)->UseRealTime();

} // namespace

BENCHMARK_MAIN();

//===- gc/GcStats.h - Per-collection statistics ---------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters gathered during each collection. The generation-friendliness
/// experiments (DESIGN.md C1/C2) are stated in terms of these counters:
/// e.g. the protected entries a collection visits must not grow with the
/// number of registered objects parked in generations older than the one
/// collected.
///
/// Each collection is also broken down into phases (GcPhase): the
/// per-phase wall-clock nanos in GcStats::Phases account for the whole
/// pause, so the pause duration minus Phases.totalNanos() is only the
/// inter-phase bookkeeping (a handful of flag stores). The telemetry
/// layer (gc/telemetry/) records the same phases as trace events.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_GCSTATS_H
#define GENGC_GC_GCSTATS_H

#include <cstddef>
#include <cstdint>

namespace gengc {

/// The distinct phases of one collection, in execution order (the
/// Section 4 phase structure; see Collector.h). Used to index
/// GcStats::Phases and as the payload of PhaseSpan trace events.
enum class GcPhase : uint8_t {
  Setup = 0,      ///< From-space detach, sweep-cursor init, stale
                  ///< remembered-set clearing.
  Roots,          ///< Root-slot and root-vector forwarding.
  RememberedSets, ///< Older generations' remembered-object scan.
  Copy,           ///< The initial Cheney kleene-sweep to a fixpoint.
  Guardians,      ///< Section 4 pend-hold/pend-final fixpoint loop
                  ///< (including its interleaved kleene-sweeps).
  Finalizers,     ///< register-for-finalization list triage.
  WeakPairs,      ///< Weak-pair second pass (update or break cars).
  SymbolTable,    ///< Weak symbol-table entry update/drop.
  Reclaim,        ///< From-space poisoning and segment reclamation.
};
constexpr unsigned NumGcPhases = 9;

/// Display name of a phase (stable identifiers; used by the trace
/// exporter, the post-GC log line, and (gc-stats)).
constexpr const char *gcPhaseName(GcPhase P) {
  switch (P) {
  case GcPhase::Setup:
    return "setup";
  case GcPhase::Roots:
    return "roots";
  case GcPhase::RememberedSets:
    return "remembered-sets";
  case GcPhase::Copy:
    return "copy";
  case GcPhase::Guardians:
    return "guardians";
  case GcPhase::Finalizers:
    return "finalizers";
  case GcPhase::WeakPairs:
    return "weak-pairs";
  case GcPhase::SymbolTable:
    return "symbol-table";
  case GcPhase::Reclaim:
    return "reclaim";
  }
  return "unknown";
}

/// Wall-clock nanoseconds spent in each phase of one collection.
struct GcPhaseBreakdown {
  uint64_t Nanos[NumGcPhases] = {};

  uint64_t &operator[](GcPhase P) {
    return Nanos[static_cast<unsigned>(P)];
  }
  uint64_t operator[](GcPhase P) const {
    return Nanos[static_cast<unsigned>(P)];
  }

  /// Sum over all phases; reconciles with the pause duration.
  uint64_t totalNanos() const {
    uint64_t Total = 0;
    for (unsigned I = 0; I != NumGcPhases; ++I)
      Total += Nanos[I];
    return Total;
  }

  void accumulate(const GcPhaseBreakdown &Other) {
    for (unsigned I = 0; I != NumGcPhases; ++I)
      Nanos[I] += Other.Nanos[I];
  }
};

/// Every collector counter, declared once: a new counter is one row.
/// The structs below, their merges, the scope-close copy, the fuzzer
/// model's records and checks, and the exports are generated from it.
/// Each row is X(Name, Merge, Key, Scope, Model, ScopeName, ScopeTotalName):
///   Name   member of GcStats (one collection) and GcTotals (the running
///          total over a heap's collections, and over shards).
///   Merge  Sum or Max: how GcTotals and ScopeTotals fold a record in.
///   Key    export stem or "": (gc-stats) reports total-<key> and
///          last-<key> ('_' as '-'), the benchmark JSON gc_<key>.
///   Scope  Y if a scope close reports it too (ScopeCloseStats, ScopeTotals).
///   Model  Y if ShadowModel predicts it exactly (N: implementation detail,
///          such as roots, segments, timings); the fuzzer diverges on
///          stats.<Name> and scope-stats.<ScopeName>.
///   ScopeName, ScopeTotalName  the member's name in ScopeCloseStats and
///          ScopeTotals where it differs; empty means the name to its left.
// clang-format off
#define GENGC_GC_COUNTERS(X)                                                           \
  /* Name                   Merge Key                      Scope Model Scope names  */ \
  X(ObjectsCopied,            Sum, "objects_copied",         Y, Y, ObjectsEvacuated, ) \
  X(BytesCopied,              Sum, "bytes_copied",           Y, Y, BytesEvacuated, )   \
  /* Copied into a generation older than their own: every copy except those of      */ \
  /* objects already in the oldest generation when it is collected.                 */ \
  X(ObjectsPromoted,          Sum, "objects_promoted",       N, Y, , )                 \
  X(RootsScanned,             Sum, "",                       N, N, , )                 \
  X(RememberedObjectsScanned, Sum, "",                       N, N, , )                 \
  /* The collected extent (or the closing scope's allocation) at the start:         */ \
  /* what was copied over this is the survival rate; the rest died untraced.        */ \
  X(BytesInFromSpace,         Sum, "bytes_in_from_space",    Y, Y, BytesInScope,       \
    BytesInScopes)                                                                     \
  /* Section 4: entries of protected[i], i <= g, visited; objects moved to an       */ \
  /* inaccessible group; entries moved to protected[target]; entries whose          */ \
  /* guardian died; rounds of the pend-final fixpoint loop.                         */ \
  X(ProtectedEntriesVisited,  Sum, "",                       Y, Y, , )                 \
  X(GuardianObjectsSaved,     Sum, "guardian_objects_saved", Y, Y, , )                 \
  X(ProtectedEntriesKept,     Sum, "",                       Y, Y, , )                 \
  X(GuardianEntriesDropped,   Sum, "",                       Y, Y, , )                 \
  X(GuardianLoopIterations,   Sum, "",                       Y, Y, , )                 \
  X(WeakPairsExamined,        Sum, "",                       Y, N, , )                 \
  X(WeakPointersBroken,       Sum, "weak_pointers_broken",   Y, Y, , )                 \
  /* The register-for-finalization baseline; weak symbol-table entries removed.     */ \
  X(FinalizerThunksRun,       Sum, "finalizer_thunks_run",   Y, N, , )                 \
  X(SymbolsDropped,           Sum, "",                       Y, Y, , )                 \
  X(SegmentsFreed,            Sum, "segments_freed",         Y, N, , )                 \
  X(DurationNanos,            Sum, "",                       Y, N, , CloseNanos)       \
  /* Mutator stores since the last collection through the write barrier, and        */ \
  /* heap stores of an immediate made without one (guardianRetrieve's cell clear).  */ \
  X(BarriersExecuted,         Sum, "",                       N, N, , )                 \
  X(BarriersElided,           Sum, "",                       N, N, , )                 \
  /* Kept until the benchmark drops gc.collect.workers and                          */ \
  /* gc.collect.steal_hit_frac: the scavenge is serial, so always 1, 0, 0.          */ \
  X(GcWorkersUsed,            Max, "",                       N, N, , )                 \
  X(StealAttempts,            Sum, "",                       N, N, , )                 \
  X(StealHits,                Sum, "",                       N, N, , )
// clang-format on

/// Row plumbing. GENGC_COUNTER_OR(A, B) is B, or A when B is empty;
/// GENGC_COUNTER_IF_<Y|N>(...) keeps or drops its argument;
/// GENGC_COUNTER_FOLD_<Merge>(Into, From) folds one value in;
/// GENGC_COUNTER_STR(X) is X expanded, then quoted.
#define GENGC_COUNTER_FIRST(A, ...) A
#define GENGC_COUNTER_OR(A, ...)                                               \
  GENGC_COUNTER_FIRST(__VA_ARGS__ __VA_OPT__(, ) A)
#define GENGC_COUNTER_STR_I(X) #X
#define GENGC_COUNTER_STR(X) GENGC_COUNTER_STR_I(X)
#define GENGC_COUNTER_IF_Y(...) __VA_ARGS__
#define GENGC_COUNTER_IF_N(...)
#define GENGC_COUNTER_FOLD_Sum(Into, From) Into += From;
#define GENGC_COUNTER_FOLD_Max(Into, From)                                     \
  if (From > Into)                                                             \
    Into = From;
#define GENGC_SCOPE_NAME(Name, ScopeName) GENGC_COUNTER_OR(Name, ScopeName)
#define GENGC_SCOPE_TOTAL_NAME(Name, ScopeName, ScopeTotalName)                \
  GENGC_COUNTER_OR(GENGC_SCOPE_NAME(Name, ScopeName), ScopeTotalName)

/// Generators shared by several uses (X arguments for GENGC_GC_COUNTERS).
/// GENGC_COUNTER_FOLD folds the same-named member of a record `From`.
#define GENGC_COUNTER_COUNT(...) +1
#define GENGC_COUNTER_COUNT_SCOPE(N, M, K, Scope, ...)                         \
  GENGC_COUNTER_IF_##Scope(+1)
#define GENGC_COUNTER_MEMBER(Name, ...) uint64_t Name = 0;
#define GENGC_COUNTER_FOLD(Name, Merge, ...)                                   \
  GENGC_COUNTER_FOLD_##Merge(Name, From.Name)

constexpr unsigned NumGcCounters = 0 GENGC_GC_COUNTERS(GENGC_COUNTER_COUNT);
constexpr unsigned NumScopeCounters =
    0 GENGC_GC_COUNTERS(GENGC_COUNTER_COUNT_SCOPE);

struct GcStats {
  uint64_t CollectionIndex = 0;
  unsigned CollectedGeneration = 0; ///< The paper's g.
  unsigned TargetGeneration = 0;    ///< The paper's target generation.
  GENGC_GC_COUNTERS(GENGC_COUNTER_MEMBER)
  /// Where the pause went, phase by phase.
  GcPhaseBreakdown Phases;
};

/// Running totals across all collections of a heap.
struct GcTotals {
  uint64_t Collections = 0;
  uint64_t FullCollections = 0;
  GENGC_GC_COUNTERS(GENGC_COUNTER_MEMBER)
  GcPhaseBreakdown Phases;

  void accumulate(const GcStats &From, unsigned OldestGeneration) {
    ++Collections;
    if (From.CollectedGeneration == OldestGeneration)
      ++FullCollections;
    GENGC_GC_COUNTERS(GENGC_COUNTER_FOLD)
    Phases.accumulate(From.Phases);
  }

  /// Folds another heap's totals into this one (cross-shard
  /// aggregation; see telemetry/Aggregate.h).
  void merge(const GcTotals &From) {
    Collections += From.Collections;
    FullCollections += From.FullCollections;
    GENGC_GC_COUNTERS(GENGC_COUNTER_FOLD)
    Phases.accumulate(From.Phases);
  }
};

/// Statistics of one scope-close evacuation (Heap::closeScope). A scope
/// close is deliberately NOT a collection — it does not bump
/// GcTotals::Collections, CollectionIndex, or the per-generation
/// survival history — so its counters live in their own record rather
/// than in GcStats. The shared machinery (forwarding, the guardian
/// fixpoint, weak-pair breaking) fills the rows marked Scope, with
/// "evacuated" in place of "copied".
struct ScopeCloseStats {
  unsigned Depth = 0; ///< The scope that was closed (1 = outermost).
#define GENGC_X(Name, M, K, Scope, Model, SN, STN)                             \
  GENGC_COUNTER_IF_##Scope(uint64_t GENGC_SCOPE_NAME(Name, SN) = 0;)
  GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X

  /// The scope-close view of a pass the collector ran as \p S.
  void copyFrom(const GcStats &S) {
#define GENGC_X(Name, M, K, Scope, Model, SN, STN)                             \
  GENGC_COUNTER_IF_##Scope(GENGC_SCOPE_NAME(Name, SN) = S.Name;)
    GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  }
};

/// Running totals across every scope open/close of a heap (merged
/// across shards by tools/loadgen).
struct ScopeTotals {
  uint64_t ScopesOpened = 0;
  uint64_t ScopesClosed = 0;
  uint64_t MaxDepth = 0; ///< Deepest nesting opened (max-merged).
  /// Bytes allocated in scopes minus bytes evacuated: request-local
  /// garbage reclaimed at scope exits without ever being traced.
  uint64_t BytesReclaimed = 0;
#define GENGC_X(Name, M, K, Scope, Model, SN, STN)                             \
  GENGC_COUNTER_IF_##Scope(uint64_t GENGC_SCOPE_TOTAL_NAME(Name, SN, STN) = 0;)
  GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X

  void accumulate(const ScopeCloseStats &S) {
    ++ScopesClosed;
    BytesReclaimed += S.BytesInScope - S.BytesEvacuated;
#define GENGC_X(Name, Merge, K, Scope, Model, SN, STN)                         \
  GENGC_COUNTER_IF_##Scope(GENGC_COUNTER_FOLD_##Merge(                         \
      GENGC_SCOPE_TOTAL_NAME(Name, SN, STN), S.GENGC_SCOPE_NAME(Name, SN)))
    GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  }

  void merge(const ScopeTotals &O) {
    ScopesOpened += O.ScopesOpened;
    ScopesClosed += O.ScopesClosed;
    if (O.MaxDepth > MaxDepth)
      MaxDepth = O.MaxDepth;
    BytesReclaimed += O.BytesReclaimed;
#define GENGC_X(Name, Merge, K, Scope, Model, SN, STN)                         \
  GENGC_COUNTER_IF_##Scope(GENGC_COUNTER_FOLD_##Merge(                         \
      GENGC_SCOPE_TOTAL_NAME(Name, SN, STN),                                   \
      O.GENGC_SCOPE_TOTAL_NAME(Name, SN, STN)))
    GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  }
};

// A counter declared outside the table would escape the merges, the
// exports and the model checks, so it fails to build instead.
constexpr size_t CounterBytes = sizeof(uint64_t);
static_assert(sizeof(GcStats) == (2 + NumGcCounters) * CounterBytes +
                                     sizeof(GcPhaseBreakdown));
static_assert(sizeof(GcTotals) == (2 + NumGcCounters) * CounterBytes +
                                      sizeof(GcPhaseBreakdown));
static_assert(sizeof(ScopeCloseStats) == (1 + NumScopeCounters) * CounterBytes);
static_assert(sizeof(ScopeTotals) == (4 + NumScopeCounters) * CounterBytes);

} // namespace gengc

#endif // GENGC_GC_GCSTATS_H

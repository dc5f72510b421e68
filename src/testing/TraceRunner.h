//===- testing/TraceRunner.h - Differential trace execution ---*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a fuzz trace simultaneously against a real Heap and the
/// ShadowModel, cross-checking after *every* collection (automatic,
/// stress-triggered, or explicit):
///
///   - slot liveness and identity: via the fuzz-only forwarding witness
///     (Heap::setForwardWitness), every unrooted handle the harness
///     holds is either moved exactly when the model says its object is
///     live in a collected generation, or reclaimed exactly when the
///     model says it died — in both directions;
///   - value-graph isomorphism from all roots (a bijection between
///     shadow ids and heap addresses, with per-object kind, length,
///     content, generation, and weak/ordinary-space agreement) — this
///     subsumes weak-pair break sets in both directions, per-guardian
///     resurrection sets AND tconc order, and re-guarding state;
///   - the predictable GcStats counters (copies, bytes, promotions,
///     guardian bookkeeping, weak breaks, symbol drops);
///   - Heap::census() object counts and byte occupancy, per
///     (generation, space) and per kind;
///   - Heap::verifyHeap() structural invariants.
///
/// A divergence aborts the trace with a diagnostic; shrinkTrace()
/// reduces a diverging trace by greedy chunk deletion.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_TESTING_TRACERUNNER_H
#define GENGC_TESTING_TRACERUNNER_H

#include <string>
#include <vector>

#include "gc/HeapConfig.h"
#include "testing/Trace.h"

namespace gengc {
namespace gcfuzz {

/// A named heap configuration for the fuzz matrix.
struct FuzzConfig {
  std::string Name;
  HeapConfig Config;
};

/// The standard fuzz matrix: the paper's schedule (four generations,
/// radix 4) plus three-, two- and single-generation shapes with other
/// radixes and budgets, and a stress-GC variant with from-space
/// poisoning. Small Gen0 budgets so every trace triggers automatic
/// collections.
std::vector<FuzzConfig> standardConfigs();

/// Looks up a standard config by name; returns false if unknown.
bool findConfig(const std::string &Name, FuzzConfig &Out);

struct RunResult {
  bool Diverged = false;
  std::string Message;
  /// Index of the trace op being executed when the divergence fired
  /// (Ops.size() for the end-of-trace flush collection).
  size_t OpIndex = 0;
  /// Collections observed over the run.
  uint64_t Collections = 0;
};

/// Runs one trace under one configuration (fresh Heap + fresh model),
/// ending with a full collection so the final state is checked too.
RunResult runTrace(const Trace &T, const HeapConfig &Cfg);

/// Greedy chunk-deletion shrinking: repeatedly removes op windows
/// (halving the window size down to single ops) while the trace still
/// diverges. Bounded by MaxRuns re-executions.
Trace shrinkTrace(const Trace &T, const HeapConfig &Cfg,
                  size_t MaxRuns = 3000);

} // namespace gcfuzz
} // namespace gengc

#endif // GENGC_TESTING_TRACERUNNER_H

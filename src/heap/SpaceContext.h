//===- heap/SpaceContext.h - Per-(space, generation) allocation -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocation state for one (space, generation). Objects are
/// allocated into an ordered list of segment runs; the order of objects
/// within the run list is allocation order, which is exactly what the
/// collector's Cheney sweep walks.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_SPACECONTEXT_H
#define GENGC_HEAP_SPACECONTEXT_H

#include <vector>

#include "heap/Arena.h"
#include "support/MathExtras.h"

namespace gengc {

/// Bump-allocation state for one (space, generation).
class SpaceContext {
public:
  /// Allocates \p Words words (Words >= 2) from the context, taking new
  /// runs from \p A tagged (\p Space, \p Generation) as needed. Never
  /// triggers collection; collection policy lives above this layer.
  uintptr_t *allocate(Arena &A, SpaceKind Space, uint8_t Generation,
                      size_t Words, uint8_t ScopeDepth = 0,
                      uint8_t ExtraFlags = 0) {
    if (uintptr_t *P = tryBump(Words))
      return P;
    return allocateSlow(A, Space, Generation, Words, ScopeDepth, ExtraFlags);
  }

  /// The bump half of allocate(): \p Words from the current run, or null
  /// when it has no room (allocate() would open a new run). Small enough
  /// to inline into the collector's copy loop.
  uintptr_t *tryBump(size_t Words) {
    GENGC_ASSERT(Words >= 2, "objects must be at least two words");
    if (Alloc + Words > Limit)
      return nullptr;
    uintptr_t *P = Alloc;
    Alloc += Words;
    BytesAllocated += Words * sizeof(uintptr_t);
    return P;
  }

  const std::vector<SegmentRun> &runs() const { return Runs; }

  /// Words used in run \p I, accounting for the live bump pointer of the
  /// current (last) run.
  size_t usedWordsOf(const Arena &A, size_t I) const {
    const SegmentRun &R = Runs[I];
    if (I + 1 == Runs.size() && Alloc != nullptr) {
      uintptr_t *RunBase = A.segmentBase(R.FirstSegment);
      if (Alloc >= RunBase &&
          Alloc <= RunBase + static_cast<size_t>(R.SegmentCount) *
                                 SegmentWords)
        return static_cast<size_t>(Alloc - RunBase);
    }
    return R.UsedWords;
  }

  /// Total bytes ever bump-allocated in this context (monotonic until
  /// reset()).
  uint64_t bytesAllocated() const { return BytesAllocated; }

  /// Total words currently occupied by objects.
  size_t usedWords(const Arena &A) const {
    size_t Total = 0;
    for (size_t I = 0, E = Runs.size(); I != E; ++I)
      Total += usedWordsOf(A, I);
    return Total;
  }

  bool empty() const { return Runs.empty(); }

  /// Detaches the run list, sealed, by appending it to \p Out (a
  /// collection's from-space, a donation handle, another context), and
  /// resets the context to empty. Both vectors keep their capacity, so a
  /// warmed-up collection detaches without allocating.
  void detachRuns(const Arena &A, std::vector<SegmentRun> &Out) {
    sealCurrentRun(A);
    Out.insert(Out.end(), Runs.begin(), Runs.end());
    Runs.clear();
    Alloc = Limit = nullptr;
    BytesAllocated = 0;
  }

  /// Records the final used size of the run being bumped into. Called
  /// before the run list is walked or detached.
  void sealCurrentRun(const Arena &A) {
    if (!Runs.empty())
      Runs.back().UsedWords = static_cast<uint32_t>(usedWordsOf(A, Runs.size() - 1));
  }

private:
  uintptr_t *allocateSlow(Arena &A, SpaceKind Space, uint8_t Generation,
                          size_t Words, uint8_t ScopeDepth,
                          uint8_t ExtraFlags) {
    sealCurrentRun(A);
    uint32_t NumSegments =
        static_cast<uint32_t>(divideCeil(Words, SegmentWords));
    uint32_t First =
        A.allocateRun(NumSegments, Space, Generation, ScopeDepth, ExtraFlags);
    Runs.push_back({First, NumSegments, 0});
    uintptr_t *RunBase = A.segmentBase(First);
    Alloc = RunBase + Words;
    Limit = RunBase + static_cast<size_t>(NumSegments) * SegmentWords;
    BytesAllocated += Words * sizeof(uintptr_t);
    return RunBase;
  }

  std::vector<SegmentRun> Runs;
  uintptr_t *Alloc = nullptr;
  uintptr_t *Limit = nullptr;
  uint64_t BytesAllocated = 0;
};

} // namespace gengc

#endif // GENGC_HEAP_SPACECONTEXT_H

//===- gc/telemetry/Census.cpp - On-demand heap census --------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/telemetry/Census.h"

#include <cstdint>

#include "gc/ScopedGeneration.h"
#include "heap/SpaceContext.h"
#include "object/Layout.h"

using namespace gengc;

namespace {

CensusKind censusKindOf(ObjectKind K) {
  switch (K) {
  case ObjectKind::Vector:
    return CensusKind::Vector;
  case ObjectKind::String:
    return CensusKind::String;
  case ObjectKind::Symbol:
    return CensusKind::Symbol;
  case ObjectKind::Box:
    return CensusKind::Box;
  case ObjectKind::Flonum:
    return CensusKind::Flonum;
  case ObjectKind::Bytevector:
    return CensusKind::Bytevector;
  case ObjectKind::Closure:
    return CensusKind::Closure;
  case ObjectKind::Primitive:
    return CensusKind::Primitive;
  case ObjectKind::PortHandle:
    return CensusKind::PortHandle;
  case ObjectKind::Record:
    return CensusKind::Record;
  case ObjectKind::Guardian:
    return CensusKind::Guardian;
  case ObjectKind::Forward:
    break; // Never live outside a collection; asserted by the caller.
  }
  GENGC_UNREACHABLE("census walk met a forwarding header");
}

} // namespace

HeapCensus Heap::census() const {
  GENGC_ASSERT(!InGc, "census during collection");
  HeapCensus C;
  C.Generations = Cfg.Generations;

  auto AccumulateRun = [&](const Arena &A, const SegmentRun &R, size_t Used,
                           SpaceKind Space, HeapCensus::Cell &Cell) {
    Cell.SegmentCount += R.SegmentCount;
    Cell.UsedBytes += Used * sizeof(uintptr_t);
    // rootcheck:allow(segment-base) — the census replays the
    // allocator's bump walk, like the verifier.
    uintptr_t *Base = A.segmentBase(R.FirstSegment);
    size_t Off = 0;
    while (Off < Used) {
      ++Cell.ObjectCount;
      size_t Words;
      CensusKind K;
      if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
        Words = 2;
        K = Space == SpaceKind::Pair ? CensusKind::Pair
                                     : CensusKind::WeakPair;
      } else {
        Words = objectAllocWords(Base[Off]);
        K = censusKindOf(headerKind(Base[Off]));
      }
      C.KindCounts[static_cast<unsigned>(K)] += 1;
      C.KindBytes[static_cast<unsigned>(K)] += Words * sizeof(uintptr_t);
      Off += Words;
    }
  };

  // Every context, a scope's included, allocates from the private arena.
  auto AccumulateContext = [&](const SpaceContext &Ctx, SpaceKind Space,
                               HeapCensus::Cell &Cell) {
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    for (size_t RI = 0; RI != Runs.size(); ++RI)
      AccumulateRun(Segments, Runs[RI], Ctx.usedWordsOf(Segments, RI), Space,
                    Cell);
  };

  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    const SpaceKind Space = static_cast<SpaceKind>(Sp);
    for (unsigned G = 0; G != Cfg.Generations; ++G)
      AccumulateContext(Contexts[Sp][G], Space, C.Cells[G][Sp]);
    // Adopted donation runs live in the exchange arena but are this
    // heap's tenured space: count them under the oldest generation,
    // which their segments are tagged with. Sealed runs, so UsedWords
    // is authoritative.
    for (const SegmentRun &R : AdoptedRuns[Sp])
      AccumulateRun(*Exchange, R, R.UsedWords, Space,
                    C.Cells[Cfg.Generations - 1][Sp]);
  }

  // Open request scopes are counted under generation 0: their segments
  // are tagged generation 0 and their survivors graduate toward it.
  for (const auto &SG : ScopeStack)
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      AccumulateContext(SG->Contexts[Sp], static_cast<SpaceKind>(Sp),
                        C.Cells[0][Sp]);

  return C;
}

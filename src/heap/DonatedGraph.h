//===- heap/DonatedGraph.h - Donated message graphs -------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exchange arena backing zero-copy inter-shard transfer (DESIGN.md
/// §13), and the handle for a message graph in flight through it. The
/// exchange arena is an ordinary Arena, distinct from every shard's
/// private arena, whose segments are all donation segments
/// (SegmentInfo::FlagDonated): sealed segments holding a self-contained
/// message graph copied out by a sending shard. While in flight they carry
/// InFlightGeneration and are owned by the DonatedGraph handle; on
/// receipt, Heap::adoptDonatedGraph retags them to the receiver's oldest
/// generation and appends them to its tenured run lists — ownership
/// moves, bytes do not.
///
/// Thread safety: donation copy-out allocates runs through the arena's
/// own run lock, one lock acquisition per run, never per object — the
/// collector itself stays lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_DONATEDGRAPH_H
#define GENGC_HEAP_DONATEDGRAPH_H

#include <string>
#include <utility>
#include <vector>

#include "heap/Arena.h"

namespace gengc {

/// A symbol slot inside a donated graph. Symbols keep per-heap eq?
/// identity through the intern table, so they are never donated; the
/// copy-out leaves #f in the slot and records the name, and adoption
/// re-interns the name on the receiving heap and patches the slot —
/// exactly the by-name transfer the deep-copy encoder performs.
struct DonatedSymbolFixup {
  /// The placeholder word inside the donated segments. Stable for the
  /// graph's whole life: donation segments never move until after
  /// adoption patches them.
  uintptr_t *Slot;
  /// Tagged bits of the donated container holding Slot — equally stable.
  /// Adoption patches Slot with a freshly interned (generation 0)
  /// symbol while the container sits in the oldest generation, so the
  /// container must enter the receiver's remembered set.
  uintptr_t ContainerBits;
  /// The slot is a weak pair's car; adoption then records the container
  /// in the weak remembered set instead of the strong one.
  bool WeakCar;
  std::string Name;
};

/// A self-contained message graph living in sealed donation segments of
/// the exchange arena. Move-only; the handle owns the segments until
/// adoption (Heap::adoptDonatedGraph empties it) or destruction (the
/// runs are freed back to the exchange arena — a dropped message leaks
/// nothing).
struct DonatedGraph {
  Arena *Domain = nullptr;
  /// Donated runs per space, in copy-out allocation order with
  /// UsedWords sealed. Space tags matter: weak pairs must land in
  /// weak-pair-space segments so the receiving collector keeps treating
  /// them as weak.
  std::vector<SegmentRun> Runs[NumSpaces];
  /// The graph's root: a tagged pointer into the donated segments or an
  /// immediate. Meaningless when RootIsSymbol.
  uintptr_t RootBits = 0;
  /// The root itself is a symbol: nothing was copied, adoption interns
  /// RootSymbolName instead of reading RootBits.
  bool RootIsSymbol = false;
  std::string RootSymbolName;
  std::vector<DonatedSymbolFixup> Fixups;
  /// Payload bytes resident in the donated runs — the bytes the
  /// receiver does NOT copy.
  uint64_t Bytes = 0;
  /// GcFaultInjection::LeakDonatedSegment: destruction skips freeing the
  /// runs, leaking them in the exchange arena for the fuzz audit to
  /// catch.
  bool LeakOnDrop = false;

  DonatedGraph() = default;
  DonatedGraph(const DonatedGraph &) = delete;
  DonatedGraph &operator=(const DonatedGraph &) = delete;
  DonatedGraph(DonatedGraph &&O) noexcept { *this = std::move(O); }
  DonatedGraph &operator=(DonatedGraph &&O) noexcept {
    if (this != &O) {
      release();
      Domain = O.Domain;
      for (unsigned S = 0; S != NumSpaces; ++S)
        Runs[S] = std::move(O.Runs[S]);
      RootBits = O.RootBits;
      RootIsSymbol = O.RootIsSymbol;
      RootSymbolName = std::move(O.RootSymbolName);
      Fixups = std::move(O.Fixups);
      Bytes = O.Bytes;
      LeakOnDrop = O.LeakOnDrop;
      O.Domain = nullptr;
      for (unsigned S = 0; S != NumSpaces; ++S)
        O.Runs[S].clear();
      O.Fixups.clear();
      O.Bytes = 0;
    }
    return *this;
  }
  ~DonatedGraph() { release(); }

  bool empty() const {
    for (unsigned S = 0; S != NumSpaces; ++S)
      if (!Runs[S].empty())
        return false;
    return true;
  }

  size_t segmentCount() const {
    size_t N = 0;
    for (unsigned S = 0; S != NumSpaces; ++S)
      for (const SegmentRun &R : Runs[S])
        N += R.SegmentCount;
    return N;
  }

  /// Frees the runs back to the exchange arena (a dropped, never-adopted
  /// message). Adoption clears the run lists first, so an adopted
  /// graph's handle releases nothing.
  void release();
};

/// The process-wide exchange arena every Heap binds to unless
/// HeapConfig::Exchange names another. Tests and the fuzzer construct
/// private arenas so segment-ownership accounting is exact per run.
Arena &processExchange();

/// In-use donation segments of \p Exchange: in-flight handles plus
/// adopted runs. O(total segments) scan; audit/test path only.
size_t donatedSegmentsInUse(const Arena &Exchange);

} // namespace gengc

#endif // GENGC_HEAP_DONATEDGRAPH_H

//===- gc/Donation.cpp - Zero-copy segment donation -----------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-level primitives of zero-copy inter-shard transfer
/// (DESIGN.md §13): copy-out donation (Heap::donateGraph) and adoption
/// (Heap::adoptDonatedGraph). Both build on the segment information
/// table: the sender copies the graph once into donation segments of
/// the exchange arena, and those segments change owner by changing
/// their tags, never by moving their bytes.
///
//===----------------------------------------------------------------------===//

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "heap/DonatedGraph.h"
#include "object/Layout.h"

using namespace gengc;

//===----------------------------------------------------------------------===//
// Copy-out donation.
//===----------------------------------------------------------------------===//

DonatedGraph Heap::donateGraph(Value Root) {
  checkOwner("donateGraph");
  GENGC_ASSERT(!InGc, "donateGraph during a collection");
  GENGC_ASSERT(!NoAllocMode, "donateGraph inside a finalizer thunk");

  DonatedGraph G;
  G.Domain = Exchange;
  if (Cfg.InjectedFault == GcFaultInjection::LeakDonatedSegment)
    G.LeakOnDrop = true;

  // Degenerate roots need no segments: immediates are valid on every
  // shard as-is, and symbols transfer by name.
  if (!Root.isHeapPointer()) {
    G.RootBits = Root.bits();
    ++GraphsDonatedTotal;
    return G;
  }
  if (Root.isObject() && objectKind(Root) == ObjectKind::Symbol) {
    G.RootIsSymbol = true;
    G.RootSymbolName = symbolName(Root);
    ++GraphsDonatedTotal;
    return G;
  }

  Arena &EA = *Exchange;
  // Copy-out lanes: in-flight donation segments carry InFlightGeneration
  // and FlagDonated; one run lock acquisition per run, never per object.
  SpaceContext Ctxs[NumSpaces];
  // Side copy map (old bits -> new bits). The sender's graph is left
  // untouched — no forwarding markers — so a send is non-destructive
  // and needs no sender-side cleanup pass afterwards.
  std::unordered_map<uintptr_t, uintptr_t> Map;
  // Newly copied cells/objects whose slots still hold sender addresses.
  std::vector<std::pair<uintptr_t *, SpaceKind>> Pending;

  auto allocDonated = [&](SpaceKind Space, size_t Words) {
    const unsigned Sp = static_cast<unsigned>(Space);
    return Ctxs[Sp].allocate(EA, Space, InFlightGeneration, Words,
                             /*ScopeDepth=*/0, SegmentInfo::FlagDonated);
  };

  // Copies one private pair or non-symbol typed object (payload raw,
  // slots fixed later) and returns the tagged bits of the copy.
  auto copyOut = [&](Value V) -> uintptr_t {
    auto Found = Map.find(V.bits());
    if (Found != Map.end())
      return Found->second;
    const SegmentInfo &Info = segInfo(V.heapAddress());
    uintptr_t NewBits;
    if (V.isPair()) {
      uintptr_t *Cell = allocDonated(Info.Space, 2);
      Cell[0] = V.pairCell()->Car;
      Cell[1] = V.pairCell()->Cdr;
      NewBits = Value::pair(reinterpret_cast<PairCell *>(Cell)).bits();
      Pending.push_back({Cell, Info.Space});
    } else {
      uintptr_t *Header = V.objectHeader();
      GENGC_ASSERT(headerKind(*Header) != ObjectKind::Forward,
                   "donateGraph found a forwarding marker");
      const size_t Words = objectSizeInWords(*Header);
      const size_t AllocWords = objectAllocWords(*Header);
      uintptr_t *NewObj = allocDonated(Info.Space, AllocWords);
      std::memcpy(NewObj, Header, Words * sizeof(uintptr_t));
      if (AllocWords > Words)
        NewObj[Words] = 0;
      NewBits = Value::object(NewObj).bits();
      if (kindHasPointers(headerKind(*Header)))
        Pending.push_back({NewObj, Info.Space});
    }
    Map.emplace(V.bits(), NewBits);
    return NewBits;
  };

  // Rewrites one slot of a donated copy in place.
  auto fixSlot = [&](uintptr_t *Slot, bool WeakCar,
                     uintptr_t ContainerBits) {
    Value V = Value::fromBits(*Slot);
    if (!V.isHeapPointer())
      return;
    GENGC_ASSERT(segInfo(V.heapAddress()).Generation != InFlightGeneration,
                 "donateGraph reached another in-flight donation");
    if (V.isObject() &&
        headerKind(*V.objectHeader()) == ObjectKind::Symbol) {
      // Symbols keep per-heap eq? identity: transfer by name, exactly
      // like the deep-copy encoder.
      G.Fixups.push_back({Slot, ContainerBits, WeakCar, symbolName(V)});
      *Slot = Value::falseV().bits();
      return;
    }
    *Slot = copyOut(V);
  };

  G.RootBits = copyOut(Root);
  while (!Pending.empty()) {
    auto [P, Space] = Pending.back();
    Pending.pop_back();
    if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
      // Weak cars are traversed strongly: a message is a value, and the
      // deep-copy encoder also carries weakly-held structure across; the
      // copies land in weak-pair-space segments, so the receiver's own
      // collections resume weak semantics after adoption.
      uintptr_t CB =
          Value::pair(reinterpret_cast<PairCell *>(P)).bits();
      fixSlot(&P[0], /*WeakCar=*/Space == SpaceKind::WeakPair, CB);
      fixSlot(&P[1], /*WeakCar=*/false, CB);
    } else {
      const uintptr_t CB = Value::object(P).bits();
      const size_t Fields = objectPointerFieldCount(*P);
      for (size_t I = 0; I != Fields; ++I)
        fixSlot(P + 1 + I, /*WeakCar=*/false, CB);
    }
  }

  // Seal and detach: the handle owns the runs outright from here.
  uint64_t Bytes = 0;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    Ctxs[Sp].detachRuns(EA, G.Runs[Sp]);
    for (const SegmentRun &R : G.Runs[Sp])
      Bytes += static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
  }
  G.Bytes = Bytes;

  ++GraphsDonatedTotal;
  SegmentsDonatedTotal += G.segmentCount();
  BytesDonatedTotal += Bytes;
  return G;
}

//===----------------------------------------------------------------------===//
// Adoption.
//===----------------------------------------------------------------------===//

Value Heap::adoptDonatedGraph(DonatedGraph &Graph) {
  checkOwner("adoptDonatedGraph");
  GENGC_ASSERT(!InGc, "adoptDonatedGraph during a collection");
  GENGC_ASSERT(!NoAllocMode, "adoptDonatedGraph inside a finalizer thunk");
  GENGC_ASSERT(Graph.Domain == nullptr || Graph.Domain == Exchange,
               "adopting a graph from a foreign exchange domain");

  ++GraphsAdoptedTotal;

  // Degenerate graphs: nothing was donated.
  if (Graph.RootIsSymbol) {
    GENGC_ASSERT(Graph.empty(), "symbol-rooted graph carries segments");
    Graph.Domain = nullptr;
    return intern(Graph.RootSymbolName);
  }
  if (Graph.empty()) {
    Value Root = Value::fromBits(Graph.RootBits);
    Graph.Domain = nullptr;
    return Root;
  }

  // Phase 1 — safepoints allowed: intern every fixup symbol while the
  // donated segments are still private to the handle. Nothing in this
  // heap references them yet (the fixup slots hold #f), so a collection
  // triggered by interning cannot observe half-adopted memory.
  RootVector Syms(*this);
  for (const DonatedSymbolFixup &F : Graph.Fixups)
    Syms.push_back(intern(F.Name));

  // Phase 2 — no safepoints from here on: retag the segments to this
  // heap's oldest generation and append the runs to the adopted tenured
  // space. Addresses do not change; ownership does.
  const uint8_t Oldest = static_cast<uint8_t>(oldestGeneration());
  Arena &EA = *Exchange;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    for (const SegmentRun &R : Graph.Runs[Sp]) {
      for (uint32_t Seg = R.FirstSegment;
           Seg != R.FirstSegment + R.SegmentCount; ++Seg) {
        SegmentInfo &Info = EA.infoAt(Seg);
        GENGC_ASSERT(Info.isDonated() &&
                         Info.Generation == InFlightGeneration,
                     "adopting a segment that is not an in-flight donation");
        Info.Generation = Oldest;
        Info.ScopeDepth = 0;
      }
      AdoptedRuns[Sp].push_back(R);
    }
    Graph.Runs[Sp].clear();
  }

  // Phase 3: patch the symbol placeholders raw and record the young
  // edges — a freshly interned symbol is generation 0 (or lives in an
  // open scope), while its container now sits in the oldest generation.
  for (size_t I = 0; I != Graph.Fixups.size(); ++I) {
    const DonatedSymbolFixup &F = Graph.Fixups[I];
    Value Sym = Syms[I];
    *F.Slot = Sym.bits();
    const unsigned SymDepth = scopeDepthOf(Sym);
    if (SymDepth != 0) {
      // Interned into an open scope of this heap: the donated container
      // is an escape root for that scope, not a remembered-set entry.
      ScopedGeneration &SG = *ScopeStack[SymDepth - 1];
      (F.WeakCar ? SG.WeakEscapes : SG.Escapes).insert(F.ContainerBits);
    } else if (generationOf(Sym) < Oldest) {
      (F.WeakCar ? WeakRemembered[Oldest] : Remembered[Oldest])
          .insert(F.ContainerBits);
    }
  }
  Graph.Fixups.clear();

  Value Root = Value::fromBits(Graph.RootBits);
  Graph.Domain = nullptr;
  Graph.Bytes = 0;
  return Root;
}

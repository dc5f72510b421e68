//===- gc/ScopedGeneration.cpp - Request-scoped generations ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scope lifecycle (Heap::openScope / Heap::closeScope) and the
/// scope close's entry into the collector's evacuation
/// (Collector::runScopeClose). A close is the evacuation a collection
/// runs, over a different extent: its from-space is the scope's
/// segments, its extra roots are the scope's escape set, its lists are
/// the scope's own, and its to-space list is the enclosing extent's
/// contexts. The phases, the Cheney sweep, the Section 4 guardian
/// fixpoint and the weak pass are the collector's (gc/Collector.cpp);
/// this file holds only the close's halves of them. It is deliberately
/// NOT a collection: no GcStats, no collection counters, no survival
/// history, no phase timers — its numbers land in ScopeCloseStats /
/// ScopeTotals.
///
//===----------------------------------------------------------------------===//

#include "gc/ScopedGeneration.h"

#include <algorithm>

#include "gc/Collector.h"
#include "gc/telemetry/Telemetry.h"

using namespace gengc;

//===----------------------------------------------------------------------===//
// Heap-side lifecycle.
//===----------------------------------------------------------------------===//

void Heap::openScope() {
  checkOwner("openScope");
  GENGC_ASSERT(!InGc, "openScope during a collection");
  GENGC_ASSERT(!NoAllocMode, "openScope inside a finalizer thunk");
  GENGC_ASSERT(NoGcScopeDepth == 0, "openScope inside a NoGcScope");
  GENGC_ASSERT(ScopeStack.size() < Cfg.MaxScopeDepth,
               "scope nesting deeper than HeapConfig::MaxScopeDepth");
  ScopeStack.push_back(std::make_unique<ScopedGeneration>(
      static_cast<unsigned>(ScopeStack.size()) + 1));
  ++ScopeTotalsRec.ScopesOpened;
  if (ScopeStack.size() > ScopeTotalsRec.MaxDepth)
    ScopeTotalsRec.MaxDepth = ScopeStack.size();
}

void Heap::closeScope() {
  checkOwner("closeScope");
  GENGC_ASSERT(!InGc, "closeScope during a collection");
  GENGC_ASSERT(!NoAllocMode, "closeScope inside a finalizer thunk");
  GENGC_ASSERT(NoGcScopeDepth == 0, "closeScope inside a NoGcScope");
  GENGC_ASSERT(!ScopeStack.empty(), "closeScope with no open scope");

  ScopeCloseStats Out;
  {
    // The stack still holds the closing scope while the evacuation runs:
    // barriered stores the evacuation itself performs (tconc delivery)
    // classify against the full depth ladder.
    Collector C(*this);
    C.runScopeClose(*ScopeStack.back(), Out);
  }
  GENGC_ASSERT(ScopeStack.back()->Symbols.empty(),
               "a closed scope still lists interned symbols");
  LastScopeClose = Out;
  ScopeTotalsRec.accumulate(Out);
  ScopeStack.pop_back();

  if (ScopeStack.empty()) {
    // Graduates landed in the ordinary generation 0: charge them to the
    // allocation budget so the automatic policy sees them. (Graduates
    // into an enclosing scope are charged when that scope closes.)
    BytesSinceGc += Out.BytesEvacuated;
    if (BytesSinceGc >= Cfg.Gen0CollectBytes)
      GcPending = true;
  }

  if (CloseScopeHook)
    CloseScopeHook(*this, LastScopeClose);
}

std::vector<Heap::ProtectedEntry> &
Heap::protectedListFor(Value Obj, Value Tconc, Value Agent) {
  unsigned Deepest = 0;
  for (Value V : {Obj, Tconc, Agent})
    Deepest = std::max(Deepest, scopeDepthOf(V));
  if (Deepest != 0)
    return ScopeStack[Deepest - 1]->Protected;
  return Protected[0];
}

std::vector<Heap::SymbolEntry *> &Heap::symbolListFor(Value Sym) {
  const SegmentInfo &Info = segInfo(Sym.heapAddress());
  if (Info.ScopeDepth != 0)
    return ScopeStack[Info.ScopeDepth - 1]->Symbols;
  GENGC_ASSERT(Info.Generation < Cfg.Generations,
               "interned symbol outside the generations");
  return SymbolLists[Info.Generation];
}

//===----------------------------------------------------------------------===//
// The scope close's halves of the evacuation.
//===----------------------------------------------------------------------===//

void Collector::runScopeClose(ScopedGeneration &Scope, ScopeCloseStats &Out) {
  StartNanos = H.Telemetry.now();
  ClosingScope = &Scope;
  T = 0;
  // Not a collection: events recorded mid-close (none today) would name
  // the last completed collection, and no counters are bumped.
  S.CollectionIndex = H.Totals.Collections;
  // Generation 0's finalize lists hold the scope's registrations.
  evacuate(0);
  Out.Depth = Scope.Depth;
  Out.copyFrom(S);
  runFinalizerThunks();
}

void Collector::scopeSetUpSpaces(ScopedGeneration &Scope) {
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    Scope.Contexts[Sp].detachRuns(H.Segments, H.FromSpaceRuns);
  markFromSpace(H.Segments, H.FromSpaceRuns);

  // The to-space is the enclosing extent: the enclosing scope's contexts,
  // or the ordinary generation 0's. Every survivor of a space lands in
  // its one context.
  ScopedGeneration *Into =
      Scope.Depth >= 2 ? H.ScopeStack[Scope.Depth - 2].get() : nullptr;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    if (Into)
      addToSpace(Into->Contexts[Sp], static_cast<SpaceKind>(Sp), /*Gen=*/0,
                 Into->Depth);
    else
      addToSpace(H.Contexts[Sp][0], static_cast<SpaceKind>(Sp), /*Gen=*/0,
                 /*ScopeDepth=*/0);
  }
}

void Collector::scopeForwardEscapeRoots(ScopedGeneration &Scope) {
  // The escape set plays the remembered set's role: each recorded
  // container lives outside the scope and may hold the only strong
  // pointer into it. Conservative like a remembered set — a container
  // whose into-scope field was later overwritten is scanned harmlessly.
  bool LeakOne = H.Cfg.InjectedFault == GcFaultInjection::LeakScopeEscape &&
                 !H.ScopeLeakFired;
  Scope.Escapes.snapshotInto(H.SetSnapshot);
  for (uintptr_t Bits : H.SetSnapshot) {
    Value C = Value::fromBits(Bits);
    if (LeakOne) {
      // Injected bug: lose this escape record, exactly as if the write
      // barrier had missed the store. Memory-safe by construction: the
      // into-scope fields are cleared to #f rather than left dangling,
      // so the divergence is semantic (an object the model keeps alive
      // dies), never a wild pointer.
      LeakOne = false;
      H.ScopeLeakFired = true;
      dropFromSpaceFields(C);
      continue;
    }
    forwardRememberedObject(C);
    ++S.RememberedObjectsScanned;
  }
}

void Collector::scopeWeakEscapePass(ScopedGeneration &Scope) {
  // Registered weak escapes: weak pairs outside the scope whose car
  // may point into it. fixWeakCar updates-or-breaks and re-records the
  // generational WeakRemembered edge itself; the scope analogue (car
  // graduated into a still-open enclosing scope) is re-recorded here.
  Scope.WeakEscapes.snapshotInto(H.SetSnapshot);
  for (uintptr_t Bits : H.SetSnapshot) {
    Value W = Value::fromBits(Bits);
    fixWeakCar(W);
    Value Car = pairCar(W);
    if (!Car.isHeapPointer())
      continue;
    const SegmentInfo &WI = H.segInfo(W.heapAddress());
    const SegmentInfo &CI = H.segInfo(Car.heapAddress());
    if (CI.ScopeDepth > WI.ScopeDepth)
      H.ScopeStack[CI.ScopeDepth - 1]->WeakEscapes.insert(Bits);
  }
  Scope.WeakEscapes.clear();
}

void Collector::propagateScopeEscapes(ScopedGeneration &Scope) {
  // Replay the barrier classification over every escape container's
  // strong fields: edges into the dying scope were rewritten to point at
  // graduated copies, which may themselves be escapes of the (still
  // open) enclosing scope — or old-to-young edges when the closing scope
  // was outermost and graduates landed in the ordinary generation 0.
  auto Record = [&](Value C, const SegmentInfo &CInfo, uintptr_t FieldBits) {
    Value F = Value::fromBits(FieldBits);
    if (!F.isHeapPointer())
      return;
    const SegmentInfo &FInfo = H.segInfo(F.heapAddress());
    if (FInfo.ScopeDepth > CInfo.ScopeDepth) {
      H.ScopeStack[FInfo.ScopeDepth - 1]->Escapes.insert(C.bits());
    } else if (CInfo.ScopeDepth == 0 && FInfo.ScopeDepth == 0 &&
               CInfo.Generation > 0 &&
               FInfo.Generation < CInfo.Generation) {
      H.Remembered[CInfo.Generation].insert(C.bits());
    }
  };
  Scope.Escapes.snapshotInto(H.SetSnapshot);
  for (uintptr_t Bits : H.SetSnapshot) {
    Value C = Value::fromBits(Bits);
    const SegmentInfo &CInfo = H.segInfo(C.heapAddress());
    if (C.isPair()) {
      PairCell *Cell = C.pairCell();
      if (CInfo.Space != SpaceKind::WeakPair)
        Record(C, CInfo, Cell->Car);
      Record(C, CInfo, Cell->Cdr);
    } else {
      uintptr_t *Header = C.objectHeader();
      const size_t Fields = objectPointerFieldCount(*Header);
      for (size_t I = 0; I != Fields; ++I)
        Record(C, CInfo, Header[1 + I]);
    }
  }
  Scope.Escapes.clear();
}

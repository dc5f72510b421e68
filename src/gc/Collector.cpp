//===- gc/Collector.cpp - Stop-and-copy generational collector -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include <cstring>

#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "gc/telemetry/Telemetry.h"
#include "support/MathExtras.h"

using namespace gengc;

void Collector::run(unsigned G) {
  GcTelemetry &Tel = H.Telemetry;
  StartNanos = Tel.now();
  PhaseCursor = StartNanos;

  const unsigned Oldest = H.oldestGeneration();
  GENGC_ASSERT(G <= Oldest, "collected generation out of range");
  T = std::min(G + 1, Oldest);
  // Totals.Collections is bumped by accumulate() at the end, so the
  // in-flight collection — which events recorded mid-pause must name —
  // is one past it.
  S.CollectionIndex = H.Totals.Collections + 1;
  S.CollectedGeneration = G;
  S.TargetGeneration = T;
  S.GcWorkersUsed = 1; // The scavenge is serial (see the GcStats.h row).

  if (Tel.TraceEnabled) {
    GcEvent E;
    E.Type = GcEventType::CollectionBegin;
    E.TimeNanos = StartNanos;
    E.A = S.CollectionIndex;
    E.Collection = static_cast<uint32_t>(S.CollectionIndex);
    E.Generation = static_cast<uint8_t>(G);
    Tel.emit(E);
  }

  evacuate(G);
  H.BytesSinceGc = 0;
  H.GcPending = false;

  // Mutator barrier traffic in the window since the previous
  // collection: deltas of the heap's monotonic counters.
  S.BarriersExecuted = H.BarriersExecutedTotal - H.BarriersExecutedAtGc;
  S.BarriersElided = H.BarriersElidedTotal - H.BarriersElidedAtGc;
  H.BarriersExecutedAtGc = H.BarriersExecutedTotal;
  H.BarriersElidedAtGc = H.BarriersElidedTotal;

  if (Tel.TraceEnabled) {
    if (S.ObjectsPromoted != 0) {
      GcEvent E;
      E.Type = GcEventType::TenurePromotion;
      E.TimeNanos = StartNanos + S.DurationNanos;
      E.A = S.ObjectsPromoted;
      E.B = S.BytesCopied;
      E.Collection = static_cast<uint32_t>(S.CollectionIndex);
      E.Generation = static_cast<uint8_t>(G);
      Tel.emit(E);
    }
    GcEvent E;
    E.Type = GcEventType::CollectionEnd;
    E.TimeNanos = StartNanos + S.DurationNanos;
    E.DurNanos = S.DurationNanos;
    E.A = S.BytesCopied;
    E.B = S.SegmentsFreed;
    E.Collection = static_cast<uint32_t>(S.CollectionIndex);
    E.Generation = static_cast<uint8_t>(G);
    E.Detail = static_cast<uint16_t>(T);
    Tel.emit(E);
  }

  H.Totals.accumulate(S, Oldest);
  GENGC_ASSERT(S.CollectionIndex == H.Totals.Collections,
               "collection index drifted from the totals");
  H.LastStats = S;
  runFinalizerThunks();
}

//===----------------------------------------------------------------------===//
// The evacuation both entry points share.
//===----------------------------------------------------------------------===//

template <typename Fn> void Collector::phase(GcPhase P, Fn Body) {
  if (ClosingScope) {
    Body();
    return;
  }
  PhaseTimer PT(H.Telemetry, S, P, PhaseCursor);
  Body();
}

void Collector::evacuate(unsigned G) {
  H.InGc = true;
  phase(GcPhase::Setup, [&] { setUpSpaces(G); });
  phase(GcPhase::Roots, [&] {
    forwardRoots();
    // A collection does not collect the open scopes, so their objects
    // are roots; a close finds every outer pointer into the closing scope
    // in its escape set.
    if (!ClosingScope && !H.ScopeStack.empty())
      scanOpenScopes();
  });
  phase(GcPhase::RememberedSets, [&] {
    if (ClosingScope)
      scopeForwardEscapeRoots(*ClosingScope);
    else
      processRememberedSets(G);
  });
  phase(GcPhase::Copy, [&] { kleeneSweep(); });
  phase(GcPhase::Guardians, [&] { processGuardians(G); });
  phase(GcPhase::Finalizers, [&] { processFinalizeLists(G); });
  phase(GcPhase::WeakPairs, [&] { weakPairPass(G); });
  phase(GcPhase::SymbolTable, [&] { updateSymbolTable(G); });
  phase(GcPhase::Reclaim, [&] {
    // The profiler sweep and the escape-set upkeep must read forwarding
    // markers, so they run while from-space is still intact.
    if (H.Profiler.enabled())
      sweepAllocProfiler();
    if (ClosingScope)
      propagateScopeEscapes(*ClosingScope);
    else if (!H.ScopeStack.empty())
      fixupScopeEscapes();
    freeFromSpace();
  });
  H.InGc = false;

  // The thunks are queued and counted now (so the statistics see them)
  // but run after the statistics are published. A close is a pause like
  // any other: it participates in the MMU curves and the SLO ledger even
  // though it is not a collection.
  S.FinalizerThunksRun = ThunkQueue.size();
  S.DurationNanos = H.Telemetry.now() - StartNanos;
  H.Telemetry.recordPause({StartNanos, S.DurationNanos});
}

void Collector::runFinalizerThunks() {
  // Dickey-style finalization thunks run "as part of the garbage
  // collection process and must not cause another garbage collection":
  // allocation stays disabled while they run.
  if (ThunkQueue.empty())
    return;
  H.NoAllocMode = true;
  for (uint32_t Id : ThunkQueue)
    H.FinalizerThunks[Id]();
  H.NoAllocMode = false;
}

//===----------------------------------------------------------------------===//
// From-space and to-space.
//===----------------------------------------------------------------------===//

void Collector::setUpSpaces(unsigned G) {
  GENGC_ASSERT(H.FromSpaceRuns.empty() && H.FromExchangeRuns.empty(),
               "from-space left over from the previous evacuation");
  if (ClosingScope) {
    scopeSetUpSpaces(*ClosingScope);
    return;
  }
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    for (unsigned I = 0; I <= G; ++I)
      H.Contexts[Sp][I].detachRuns(H.Segments, H.FromSpaceRuns);
  markFromSpace(H.Segments, H.FromSpaceRuns);

  // Adopted donation runs live in the exchange arena, tagged with the
  // oldest generation: a full collection evacuates their survivors into
  // the private arena like any other old objects, after which the
  // exchange segments are returned to the process pool.
  if (G == H.oldestGeneration()) {
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
      H.FromExchangeRuns.insert(H.FromExchangeRuns.end(),
                                H.AdoptedRuns[Sp].begin(),
                                H.AdoptedRuns[Sp].end());
      H.AdoptedRuns[Sp].clear();
    }
    markFromSpace(*H.Exchange, H.FromExchangeRuns);
  }

  // The to-space: generation T's contexts, where every survivor lands.
  // When T is the oldest generation and was collected, they were just
  // detached (empty); otherwise what they hold is an older object
  // covered by the remembered sets, so each sweep starts at the current
  // frontier.
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    addToSpace(H.Contexts[Sp][T], static_cast<SpaceKind>(Sp), T,
               /*ScopeDepth=*/0);

  // Stale remembered entries of collected generations refer to
  // from-space containers; their survivors are rescanned by the sweep.
  for (unsigned I = 0; I <= G; ++I) {
    H.Remembered[I].clear();
    H.WeakRemembered[I].clear();
  }
}

void Collector::addToSpace(SpaceContext &Ctx, SpaceKind Space, unsigned Gen,
                           unsigned ScopeDepth) {
  SweepCursor Frontier{0, 0};
  if (!Ctx.runs().empty()) {
    const size_t Last = Ctx.runs().size() - 1;
    Frontier = SweepCursor{Last, Ctx.usedWordsOf(H.Segments, Last)};
  }
  ToSpaces[static_cast<unsigned>(Space)] =
      ToSpace{&Ctx, Space, static_cast<uint8_t>(Gen),
              static_cast<uint8_t>(ScopeDepth), Frontier, Frontier};
}

void Collector::markFromSpace(Arena &A, const std::vector<SegmentRun> &Runs) {
  for (const SegmentRun &R : Runs) {
    for (uint32_t Seg = R.FirstSegment;
         Seg != R.FirstSegment + R.SegmentCount; ++Seg)
      A.infoAt(Seg).Flags |= SegmentInfo::FlagFromSpace;
    // Detached runs are sealed, so UsedWords is the occupied extent; the
    // sum is the denominator of this collection's survival rate.
    S.BytesInFromSpace +=
        static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
  }
}

void Collector::freeFromSpace() {
  releaseRuns(H.Segments, H.FromSpaceRuns);
  // Evacuated exchange-arena runs (adopted donations taken by a full
  // collection's setUpSpaces) go back to the process-wide pool;
  // Arena::freeRuns is internally locked, so this is safe against other
  // shards allocating donation segments.
  releaseRuns(*H.Exchange, H.FromExchangeRuns);
}

void Collector::releaseRuns(Arena &A, std::vector<SegmentRun> &Runs) {
  for (const SegmentRun &R : Runs) {
    if (H.Cfg.PoisonFromSpace) {
      // Overwrite the evacuated run so any stale pointer into it reads
      // the poison pattern (an invalid Value tag and an unmapped
      // address when dereferenced) instead of plausible dead objects.
      // rootcheck:allow(segment-base) — collector owns from-space.
      uintptr_t *Base = A.segmentBase(R.FirstSegment);
      const size_t RunWords =
          static_cast<size_t>(R.SegmentCount) * SegmentWords;
      for (size_t I = 0; I != RunWords; ++I)
        Base[I] = FromSpacePoisonPattern;
    }
    S.SegmentsFreed += R.SegmentCount;
  }
  A.freeRuns(Runs);
  Runs.clear();
}

//===----------------------------------------------------------------------===//
// Copying.
//===----------------------------------------------------------------------===//

inline uintptr_t *Collector::allocateCopy(const SegmentInfo &Info,
                                          size_t Words, uint64_t &Promoted) {
  // "Objects in generations less than or equal to g that survive a
  // collection of generation g are placed in generation g+1" (capped at
  // the oldest generation): an inline bump in the space's to-space
  // context, which opens its next run when the current one is full. A
  // scope close graduates survivors within generation 0: never a
  // promotion.
  Promoted = T > Info.Generation ? 1 : 0;
  return ToSpaces[static_cast<unsigned>(Info.Space)].allocate(H.Segments,
                                                              Words);
}

Value Collector::forwardFromSpace(Value V, const SegmentInfo *Info) {
  if (!Info) {
    // Outside the private arena: an adopted donation, from-space only
    // in a full collection.
    Info = &H.exchangeInfo(V.heapAddress());
    if (!Info->isFromSpace())
      return V;
  }
  uint64_t Promoted = 0;
  if (V.isPair()) {
    PairCell *Cell = V.pairCell();
    if (Value::fromBits(Cell->Car).isForwardMarker())
      return Value::fromBits(Cell->Cdr);
    // Copy, preserving the pair's space (ordinary vs. weak).
    uintptr_t *NewCell = allocateCopy(*Info, 2, Promoted);
    NewCell[0] = Cell->Car;
    NewCell[1] = Cell->Cdr;
    Value NewV = Value::pair(reinterpret_cast<PairCell *>(NewCell));
    Cell->Car = Value::forwardMarker().bits();
    Cell->Cdr = NewV.bits();
    ++S.ObjectsCopied;
    S.BytesCopied += 2 * sizeof(uintptr_t);
    S.ObjectsPromoted += Promoted;
    if (H.ForwardWitness)
      H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
    return NewV;
  }

  uintptr_t *Header = V.objectHeader();
  if (headerKind(*Header) == ObjectKind::Forward)
    return Value::fromBits(Header[1]);
  const size_t Words = objectSizeInWords(*Header);
  const size_t AllocWords = objectAllocWords(*Header);
  uintptr_t *NewObj = allocateCopy(*Info, AllocWords, Promoted);
  std::memcpy(NewObj, Header, Words * sizeof(uintptr_t));
  if (AllocWords > Words)
    NewObj[Words] = 0; // Deterministic padding for the verifier.
  Value NewV = Value::object(NewObj);
  Header[0] = makeHeader(ObjectKind::Forward, 0);
  Header[1] = NewV.bits();
  ++S.ObjectsCopied;
  S.BytesCopied += AllocWords * sizeof(uintptr_t);
  S.ObjectsPromoted += Promoted;
  if (H.ForwardWitness)
    H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
  return NewV;
}

void Collector::sweepAllocProfiler() {
  AllocProfiler &P = H.Profiler;
  std::vector<AllocProfiler::SampledObject> &Table = P.trackedObjects();
  size_t Keep = 0;
  for (AllocProfiler::SampledObject &O : Table) {
    const Value V = Value::fromBits(O.Bits);
    const SegmentInfo &Info = H.segInfo(V.heapAddress());
    if (!Info.isFromSpace()) {
      // Lives in a generation older than those collected: untouched.
      Table[Keep++] = O;
      continue;
    }
    if (isForwarded(V)) {
      O.Bits = forwardedAddress(V).bits();
      P.creditSurvival(O);
      Table[Keep++] = O;
    } else {
      P.creditDeath(O);
    }
  }
  Table.resize(Keep);
}

//===----------------------------------------------------------------------===//
// Roots and remembered sets.
//===----------------------------------------------------------------------===//

void Collector::forwardRoots() {
  for (Value *Slot : H.RootSlots) {
    forwardSlot(Slot);
    ++S.RootsScanned;
  }
  for (RootVector *Vec : H.RootVectors)
    for (Value &V : Vec->Slots) {
      forwardSlot(&V);
      ++S.RootsScanned;
    }
  // External root scanners (Heap::addExternalRootScanner) let subsystems
  // that store Values in their own structures — e.g. the shard runtime's
  // session tables — participate in every collection without registering
  // each slot individually.
  for (auto &Entry : H.ExternalRootScanners)
    Entry.second([this](Value *Slot) {
      forwardSlot(Slot);
      ++S.RootsScanned;
    });
}

void Collector::processRememberedSets(unsigned G) {
  std::vector<uintptr_t> &Snapshot = H.SetSnapshot;
  bool DropOne = H.Cfg.InjectedFault == GcFaultInjection::DropRememberedEntry &&
                 !H.RememberedDropFired;
  for (unsigned I = G + 1; I < H.Cfg.Generations; ++I) {
    if (H.Remembered[I].empty())
      continue;
    H.Remembered[I].snapshotInto(Snapshot);
    H.Remembered[I].clear();
    for (uintptr_t Bits : Snapshot) {
      Value Container = Value::fromBits(Bits);
      if (DropOne) {
        // Injected bug: lose this remembered entry, exactly as if the
        // write barrier had missed the old-to-young store.
        DropOne = false;
        H.RememberedDropFired = true;
        dropFromSpaceFields(Container);
      } else {
        forwardRememberedObject(Container);
        ++S.RememberedObjectsScanned;
      }
      if (pointsBelowGeneration(Container, I))
        H.Remembered[I].insert(Bits);
    }
  }
}

void Collector::forwardRememberedObject(Value Container) {
  if (Container.isPair()) {
    PairCell *Cell = Container.pairCell();
    // A weak pair's car is weak and handled by the weak-pair pass; only
    // its cdr is a strong pointer.
    if (H.segInfo(Container.heapAddress()).Space != SpaceKind::WeakPair)
      forwardWord(&Cell->Car);
    forwardWord(&Cell->Cdr);
    return;
  }
  uintptr_t *Header = Container.objectHeader();
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    forwardWord(Header + 1 + I);
}

void Collector::dropFromSpaceFields(Value Container) {
  auto ClearIfFromSpace = [&](uintptr_t &FieldBits) {
    Value F = Value::fromBits(FieldBits);
    if (F.isHeapPointer() && H.segInfo(F.heapAddress()).isFromSpace())
      FieldBits = Value::falseV().bits();
  };
  if (Container.isPair()) {
    PairCell *Cell = Container.pairCell();
    if (H.segInfo(Container.heapAddress()).Space != SpaceKind::WeakPair)
      ClearIfFromSpace(Cell->Car);
    ClearIfFromSpace(Cell->Cdr);
    return;
  }
  uintptr_t *Header = Container.objectHeader();
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    ClearIfFromSpace(Header[1 + I]);
}

bool Collector::pointsBelowGeneration(Value Container,
                                      unsigned Generation) const {
  auto Below = [&](uintptr_t Bits) {
    Value V = Value::fromBits(Bits);
    return V.isHeapPointer() &&
           H.segInfo(V.heapAddress()).Generation < Generation;
  };
  if (Container.isPair()) {
    PairCell *Cell = Container.pairCell();
    bool Weak =
        H.segInfo(Container.heapAddress()).Space == SpaceKind::WeakPair;
    return (!Weak && Below(Cell->Car)) || Below(Cell->Cdr);
  }
  uintptr_t *Header = Container.objectHeader();
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    if (Below(Header[1 + I]))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Sweeping.
//===----------------------------------------------------------------------===//

void Collector::kleeneSweep() {
  // Sweeps the pair, typed and weak-pair contexts in turn (the data space
  // is pointerless). Space is a constant at each call, so the sweep loop
  // is specialised per space: a list copied one pair per span pays no
  // dispatch per object.
  auto Sweep = [this](SpaceKind Space) {
    ToSpace &To = ToSpaces[static_cast<unsigned>(Space)];
    return sweepRange(*To.Ctx, To.Scan, Space);
  };
  bool Progress = true;
  while (Progress) {
    Progress = Sweep(SpaceKind::Pair);
    Progress |= Sweep(SpaceKind::Typed);
    Progress |= Sweep(SpaceKind::WeakPair);
  }
}

inline bool Collector::nextSpan(const SpaceContext &Ctx, SweepCursor &Cur,
                                uintptr_t *&P, uintptr_t *&End) {
  const Arena &A = H.Segments;
  while (true) {
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    if (Cur.RunIndex >= Runs.size())
      return false;
    // The frontier is read once per span: whatever the caller allocates
    // while visiting it lands past End (in this run or a later one), and
    // the next call picks it up, so objects are visited in allocation
    // order.
    const size_t Used = Ctx.usedWordsOf(A, Cur.RunIndex);
    if (Cur.OffsetWords >= Used) {
      if (Cur.RunIndex + 1 < Runs.size()) {
        ++Cur.RunIndex;
        Cur.OffsetWords = 0;
        continue;
      }
      return false; // Caught up with the allocation frontier.
    }
    // rootcheck:allow(segment-base) — the Cheney sweep is the allocation
    // walk itself.
    uintptr_t *Base = A.segmentBase(Runs[Cur.RunIndex].FirstSegment);
    P = Base + Cur.OffsetWords;
    End = Base + Used;
    Cur.OffsetWords = Used;
    return true;
  }
}

bool Collector::sweepRange(const SpaceContext &Ctx, SweepCursor &Cur,
                           SpaceKind Space) {
  bool Progress = false;
  for (uintptr_t *P, *End; nextSpan(Ctx, Cur, P, End); Progress = true)
    sweepSpan(P, End, Space);
  return Progress;
}

void Collector::sweepSpan(uintptr_t *P, uintptr_t *End, SpaceKind Space) {
  switch (Space) {
  case SpaceKind::Pair:
    for (; P < End; P += 2)
      sweepPairAt(P, /*Weak=*/false);
    return;
  case SpaceKind::WeakPair:
    for (; P < End; P += 2)
      sweepPairAt(P, /*Weak=*/true);
    return;
  case SpaceKind::Typed:
    while (P < End) {
      const size_t Step = objectAllocWords(*P);
      sweepTypedAt(P);
      P += Step;
    }
    return;
  case SpaceKind::Data:
    break;
  }
  GENGC_UNREACHABLE("the data space is pointerless and never swept");
}

inline void Collector::sweepPairAt(uintptr_t *Cell, bool Weak) {
  // "When pairs found in the weak-pair space are traced during the
  // normal garbage collection, they are treated like normal pairs
  // except that the car field is not touched."
  if (!Weak)
    forwardWord(&Cell[0]);
  forwardWord(&Cell[1]);
}

inline void Collector::sweepTypedAt(uintptr_t *Header) {
  GENGC_ASSERT(headerKind(*Header) != ObjectKind::Forward,
               "forwarding marker found in to-space");
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    forwardWord(Header + 1 + I);
}

//===----------------------------------------------------------------------===//
// Guardians (the Section 4 algorithm).
//===----------------------------------------------------------------------===//

void Collector::processGuardians(unsigned G) {
  using Entry = Heap::ProtectedEntry;
  // The paper's lists are heap-owned scratch: cleared, never rebuilt.
  std::vector<Entry> &PendHold = H.PendHold, &PendFinal = H.PendFinal,
                     &FinalList = H.FinalList;
  PendHold.clear();
  PendFinal.clear();

  // First block: separate accessible from inaccessible registered
  // objects. forwarded?(obj) covers both "copied this cycle" and
  // "resides in an older generation". Section 5 agents are retained for
  // the lifetime of the registration, so every visited entry's agent is
  // forwarded here (for plain registrations the agent IS the object and
  // this is a no-op for inaccessible ones, preserving the Section 4
  // algorithm: forward() only marks it live if it was already live).
  bool ForwardedAnAgent = false;
  auto Classify = [&](const Entry &In) {
    Entry E = In;
    ++S.ProtectedEntriesVisited;
    if (isForwarded(Value::fromBits(E.ObjectBits))) {
      if (E.AgentBits != E.ObjectBits) {
        E.AgentBits = forward(Value::fromBits(E.AgentBits)).bits();
        ForwardedAnAgent = true;
      } else {
        E.AgentBits = forwardedAddress(Value::fromBits(E.ObjectBits)).bits();
      }
      PendHold.push_back(E);
    } else {
      PendFinal.push_back(E);
    }
  };
  if (ClosingScope) {
    // Scope close: only the closing scope's own registrations are in
    // play; forwarded?(obj) now means "graduated or lives outside the
    // scope", so the Section 4 blocks below run unchanged over the
    // dying extent.
    for (const Entry &E : ClosingScope->Protected)
      Classify(E);
    ClosingScope->Protected.clear();
  } else {
    for (unsigned I = 0; I <= G; ++I) {
      for (const Entry &E : H.Protected[I])
        Classify(E);
      H.Protected[I].clear();
    }
    // Entries parked on open scopes' lists: their scope participants are
    // uncollected, but a participant in a collected generation can still
    // move or die, so they are triaged every collection too.
    for (auto &SG : H.ScopeStack) {
      for (const Entry &E : SG->Protected)
        Classify(E);
      SG->Protected.clear();
    }
  }
  if (ForwardedAnAgent)
    kleeneSweep();

  // Second block: repeatedly salvage objects whose guardian (tconc) is
  // accessible. Salvaging can make more tconcs accessible (an object may
  // point to another guardian), hence the fixpoint loop; a tconc that
  // never becomes accessible means the guardian was dropped and the
  // entry is discarded, letting its objects be reclaimed.
  bool FaultDroppedOne = false;
  while (true) {
    ++S.GuardianLoopIterations;
    FinalList.clear();
    size_t Keep = 0;
    for (const Entry &E : PendFinal) {
      if (isForwarded(Value::fromBits(E.TconcBits)))
        FinalList.push_back(E);
      else
        PendFinal[Keep++] = E;
    }
    PendFinal.resize(Keep);
    if (FinalList.empty())
      break;
    if (H.Telemetry.TraceEnabled && !ClosingScope) {
      GcEvent Ev;
      Ev.Type = GcEventType::GuardianResurrection;
      Ev.TimeNanos = H.Telemetry.now();
      Ev.A = FinalList.size();
      // The (generation, target) coordinate pair the census reports
      // under: resurrected entries are re-parked in protected[target].
      Ev.B = T;
      Ev.Collection = static_cast<uint32_t>(S.CollectionIndex);
      Ev.Generation = static_cast<uint8_t>(S.CollectedGeneration);
      Ev.Detail = static_cast<uint16_t>(S.GuardianLoopIterations);
      H.Telemetry.emit(Ev);
    }
    deliverToTconcs(FaultDroppedOne);
    kleeneSweep();
  }
  S.GuardianEntriesDropped += PendFinal.size();

  // Third block: entries whose object survived. If the guardian survived
  // too, the entry moves to the protected list of the youngest
  // generation among its participants (the target generation, as in the
  // paper); otherwise the registration dies with the guardian.
  for (const Entry &E : PendHold) {
    Value Tconc = Value::fromBits(E.TconcBits);
    if (isForwarded(Tconc)) {
      // The agent was already forwarded during classification.
      Value NewObj = forwardedAddress(Value::fromBits(E.ObjectBits));
      Value NewTconc = forwardedAddress(Tconc);
      Value NewAgent = Value::fromBits(E.AgentBits);
      parkProtectedEntry(NewObj, NewTconc, NewAgent);
      ++S.ProtectedEntriesKept;
    } else {
      ++S.GuardianEntriesDropped;
    }
  }
}

void Collector::deliverToTconcs(bool &FaultDroppedOne) {
  // Only stores into a tconc's pre-existing cells can need an entry in
  // the remembered or escape sets, with one exception. A fresh cell lives
  // in the to-space extent, and everything it points at (the forwarded
  // agent, the next fresh cell) is there, older, or no deeper in the
  // scope stack: a scope close's to-space is the enclosing extent, as
  // deep as any agent outside the closing scope. The exception is a
  // collection with scopes open. It leaves scope residents in place, so
  // a fresh generation-T cell may point at an agent that stays in an
  // open scope, and only that scope's escape set sees the edge.
  const bool AgentsMayStayInScopes = !ClosingScope && !H.ScopeStack.empty();
  H.TconcBatches.clear();
  size_t IndexSlots = 16;
  while (IndexSlots < 2 * H.FinalList.size())
    IndexSlots *= 2;
  H.TconcBatchIndex.assign(IndexSlots, 0);

  for (const Heap::ProtectedEntry &E : H.FinalList) {
    if (H.Cfg.InjectedFault == GcFaultInjection::DropFirstResurrection &&
        !FaultDroppedOne) {
      // Injected bug: silently lose one resurrection per collection.
      // The agent is neither forwarded nor delivered, so an object the
      // paper's algorithm would save is reclaimed instead.
      FaultDroppedOne = true;
      continue;
    }
    // Deliver the agent (== the object for plain registrations, saving
    // it from destruction; a distinct Section 5 agent lets the object
    // itself be discarded). Agents are forwarded in list order whatever
    // tconc they go to, so each tconc receives them in that order too.
    Value Agent = forward(Value::fromBits(E.AgentBits));
    Value Tconc = forwardedAddress(Value::fromBits(E.TconcBits));
    // Figure 3 with the fresh last pair allocated directly in the target
    // generation (the enclosing extent during a scope close).
    uintptr_t *Cell = allocateTconcCell();
    Cell[0] = Value::falseV().bits();
    Cell[1] = Value::falseV().bits();
    Value NewLast = Value::pair(reinterpret_cast<PairCell *>(Cell));
    Heap::TconcBatch &B = batchFor(Tconc);
    // Fill the tail cell: its car becomes the element, its cdr the new
    // last pair. The mutator cannot see either store before the header's
    // cdr moves past the cell.
    if (B.Tail == pairCdr(Tconc)) {
      H.recordStore(B.Tail, Agent, /*WeakField=*/H.isWeakPair(B.Tail));
      H.recordStore(B.Tail, NewLast, /*WeakField=*/false);
    } else if (AgentsMayStayInScopes && Agent.isHeapPointer() &&
               H.segInfo(Agent.heapAddress()).ScopeDepth != 0) {
      // A fresh cell is an ordinary pair: its car is a strong field.
      H.recordStore(B.Tail, Agent, /*WeakField=*/false);
    }
    pairSetCarRaw(B.Tail, Agent);
    pairSetCdrRaw(B.Tail, NewLast);
    B.Tail = NewLast;
    ++S.GuardianObjectsSaved;
  }

  // Figure 3's final store, once per tconc: the header's cdr publishes
  // the whole batch.
  for (const Heap::TconcBatch &B : H.TconcBatches) {
    H.recordStore(B.Tconc, B.Tail, /*WeakField=*/false);
    pairSetCdrRaw(B.Tconc, B.Tail);
  }
}

uintptr_t *Collector::allocateTconcCell() {
  return ToSpaces[static_cast<unsigned>(SpaceKind::Pair)].allocate(H.Segments,
                                                                   2);
}

Heap::TconcBatch &Collector::batchFor(Value Tconc) {
  std::vector<uint32_t> &Index = H.TconcBatchIndex;
  const size_t Mask = Index.size() - 1;
  for (size_t I = hashPointerBits(Tconc.bits()) & Mask;; I = (I + 1) & Mask) {
    if (Index[I] == 0) {
      GENGC_ASSERT(Tconc.isPair() && pairCdr(Tconc).isPair(),
                   "malformed tconc append");
      H.TconcBatches.push_back({Tconc, pairCdr(Tconc)});
      Index[I] = static_cast<uint32_t>(H.TconcBatches.size());
      return H.TconcBatches.back();
    }
    Heap::TconcBatch &B = H.TconcBatches[Index[I] - 1];
    if (B.Tconc == Tconc)
      return B;
  }
}

void Collector::parkProtectedEntry(Value Obj, Value Tconc, Value Agent) {
  // An entry with a scope participant parks on the deepest such scope's
  // list, so it is revisited no later than that scope's close; entries
  // whose participants are all ordinary heap objects use the paper's
  // youngest-generation rule.
  unsigned Deepest = 0;
  unsigned Youngest = H.oldestGeneration();
  for (Value V : {Obj, Tconc, Agent}) {
    if (!V.isHeapPointer())
      continue;
    const SegmentInfo &Info = H.segInfo(V.heapAddress());
    Deepest = std::max<unsigned>(Deepest, Info.ScopeDepth);
    Youngest = std::min<unsigned>(Youngest, Info.Generation);
  }
  const Heap::ProtectedEntry Entry{Obj.bits(), Tconc.bits(), Agent.bits()};
  if (Deepest != 0)
    H.ScopeStack[Deepest - 1]->Protected.push_back(Entry);
  else
    H.Protected[Youngest].push_back(Entry);
}

//===----------------------------------------------------------------------===//
// register-for-finalization lists.
//===----------------------------------------------------------------------===//

void Collector::processFinalizeLists(unsigned G) {
  std::vector<Heap::FinalizeEntry> Kept;
  for (unsigned I = 0; I <= G; ++I) {
    for (const Heap::FinalizeEntry &E : H.FinalizeLists[I]) {
      Value Obj = Value::fromBits(E.ObjectBits);
      if (isForwarded(Obj))
        Kept.push_back({forwardedAddress(Obj).bits(), E.ThunkId});
      else
        ThunkQueue.push_back(E.ThunkId); // Object is NOT preserved.
    }
    H.FinalizeLists[I].clear();
  }
  for (const Heap::FinalizeEntry &E : Kept) {
    Value Obj = Value::fromBits(E.ObjectBits);
    const unsigned Index = Obj.isHeapPointer()
                               ? H.segInfo(Obj.heapAddress()).Generation
                               : H.oldestGeneration();
    // A kept entry's object was forwarded into private or adopted
    // space, so its generation is never the in-flight sentinel.
    GENGC_ASSERT(Index <= H.oldestGeneration(),
                 "finalize entry names an in-flight donation");
    H.FinalizeLists[Index].push_back(E);
  }
}

//===----------------------------------------------------------------------===//
// Weak pairs.
//===----------------------------------------------------------------------===//

void Collector::weakPairPass(unsigned G) {
  // (a) Weak pairs copied during this evacuation, in the to-space
  // weak-pair context: their cars may still point into the from-space.
  const ToSpace &To = ToSpaces[static_cast<unsigned>(SpaceKind::WeakPair)];
  fixWeakCars(*To.Ctx, To.Start);

  // (b) Weak pairs outside the from-space whose car may point into it.
  if (ClosingScope) {
    scopeWeakEscapePass(*ClosingScope);
    return;
  }
  // Older weak pairs whose car was mutated to point at a younger
  // generation. Only these can reference the from-space, so the pass
  // stays proportional to the collected work.
  std::vector<uintptr_t> &Snapshot = H.SetSnapshot;
  for (unsigned I = G + 1; I < H.Cfg.Generations; ++I) {
    if (H.WeakRemembered[I].empty())
      continue;
    H.WeakRemembered[I].snapshotInto(Snapshot);
    H.WeakRemembered[I].clear();
    for (uintptr_t Bits : Snapshot) {
      Value P = Value::fromBits(Bits);
      fixWeakCar(P);
      Value Car = pairCar(P);
      if (Car.isHeapPointer() &&
          H.segInfo(Car.heapAddress()).Generation < I)
        H.WeakRemembered[I].insert(Bits);
    }
  }

  // (c) Weak pairs living in open request scopes: the scopes are not
  // collected, but their cars may point into the collected generations.
  if (!H.ScopeStack.empty())
    scopeWeakContextPass();
}

void Collector::fixWeakCars(const SpaceContext &Ctx, SweepCursor Cur) {
  for (uintptr_t *P, *End; nextSpan(Ctx, Cur, P, End);)
    for (; P < End; P += 2)
      fixWeakCar(Value::pair(reinterpret_cast<PairCell *>(P)));
}

void Collector::scopeWeakContextPass() {
  for (auto &SG : H.ScopeStack)
    fixWeakCars(SG->Contexts[static_cast<unsigned>(SpaceKind::WeakPair)],
                SweepCursor{0, 0});
}

void Collector::scanOpenScopes() {
  // Every object in every open scope is an uncollected container whose
  // strong fields may point into the collected generations: one full
  // scan forwards them. Nothing is allocated into scope contexts during
  // a collection (guardian tconc cells go to the target generation), and
  // collector-side stores only write already-forwarded values, so a
  // single pass per scope suffices — no fixpoint.
  for (auto &SG : H.ScopeStack) {
    for (SpaceKind Space :
         {SpaceKind::Pair, SpaceKind::Typed, SpaceKind::WeakPair}) {
      const unsigned Sp = static_cast<unsigned>(Space);
      SweepCursor Cur{0, 0};
      sweepRange(SG->Contexts[Sp], Cur, Space);
    }
  }
}

void Collector::fixupScopeEscapes() {
  for (auto &SG : H.ScopeStack) {
    for (PtrHashSet *Set : {&SG->Escapes, &SG->WeakEscapes}) {
      if (Set->empty())
        continue;
      Set->snapshotInto(H.SetSnapshot);
      Set->clear();
      for (uintptr_t Bits : H.SetSnapshot) {
        Value C = Value::fromBits(Bits);
        const SegmentInfo &Info = H.segInfo(C.heapAddress());
        if (!Info.isFromSpace()) {
          Set->insert(Bits);
        } else if (isForwarded(C)) {
          Set->insert(forwardedAddress(C).bits());
        }
        // Dead containers drop out: whatever escape they recorded died
        // with them.
      }
    }
  }
}

void Collector::fixWeakCar(Value WeakPair) {
  ++S.WeakPairsExamined;
  PairCell *Cell = WeakPair.pairCell();
  Value Car = Value::fromBits(Cell->Car);
  if (!Car.isHeapPointer())
    return;
  const SegmentInfo &Info = H.segInfo(Car.heapAddress());
  if (!Info.isFromSpace())
    return;
  // "If the object pointed to by the car field has been forwarded, the
  // new address is placed in the car field. Otherwise, #f is placed in
  // the car field." Guardian-salvaged objects were forwarded before this
  // pass runs, so they are updated, not broken.
  if (isForwarded(Car) &&
      H.Cfg.InjectedFault != GcFaultInjection::BreakLiveWeakCar) {
    Cell->Car = forwardedAddress(Car).bits();
    Value NewCar = Value::fromBits(Cell->Car);
    // Track a young car so later collections can find it: an older pair
    // outside the from-space whose car moved into a younger target.
    unsigned PairGen = H.segInfo(WeakPair.heapAddress()).Generation;
    if (NewCar.isHeapPointer() &&
        H.segInfo(NewCar.heapAddress()).Generation < PairGen)
      H.WeakRemembered[PairGen].insert(WeakPair.bits());
  } else {
    Cell->Car = Value::falseV().bits();
    ++S.WeakPointersBroken;
  }
}

//===----------------------------------------------------------------------===//
// Symbol table.
//===----------------------------------------------------------------------===//

void Collector::updateSymbolTable(unsigned G) {
  // Friedman-Wise scatter-table collection, split by generation like the
  // protected lists: only entries whose symbol was subject to this
  // collection are visited. A dead symbol's entry drops; a survivor's is
  // re-parked on its new generation's list.
  if (ClosingScope) {
    sweepSymbolList(ClosingScope->Symbols);
    return;
  }
  // Oldest list first: every survivor lands in generation T, which is
  // either past the visited lists or (a collection of the oldest) the
  // first one visited, so no entry is visited twice.
  for (unsigned I = G + 1; I-- != 0;)
    sweepSymbolList(H.SymbolLists[I]);
}

void Collector::sweepSymbolList(std::vector<Heap::SymbolEntry *> &List) {
  size_t Keep = 0;
  for (Heap::SymbolEntry *E : List) {
    const Value Sym = Value::fromBits(E->second);
    if (!isForwarded(Sym)) {
      // Dead: the entry leaves the table (and with it this list).
      H.SymbolTable.erase(H.SymbolTable.find(E->first));
      ++S.SymbolsDropped;
      continue;
    }
    const Value NewSym = forwardedAddress(Sym);
    E->second = NewSym.bits();
    std::vector<Heap::SymbolEntry *> &Dest = H.symbolListFor(NewSym);
    if (&Dest == &List)
      List[Keep++] = E;
    else
      Dest.push_back(E);
  }
  List.resize(Keep);
}

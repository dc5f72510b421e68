//===- gc/ParallelScavenge.cpp - Multi-worker Cheney scavenge -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// Memory-ordering notes (the whole file in four invariants):
//
//  * Claim: forwarding installs a BUSY marker in the pair car / object
//    header with an acquire CAS. Exactly one worker wins; the pre-claim
//    word (the real car / header) travels back through the CAS's
//    expected-value slot, so the winner never re-reads a word another
//    worker could be mutating.
//  * Publish: the winner writes the copy, then release-stores the new
//    address into word 1, then release-stores the FINAL marker into
//    word 0. A loser spins with acquire loads on word 0; seeing FINAL
//    therefore happens-after the copy *and* the Arena::allocateRun that
//    produced the destination run, making both the object payload and
//    its SegmentInfo entry safe to read.
//  * Steal: sealed lane runs travel through the queue mutex; every
//    object in a sealed run was fully initialized by the publishing
//    worker before the run was sealed (bump allocation is in program
//    order, objects never span runs).
//  * Join: GcWorkerPool::runJob synchronizes every worker's writes with
//    the coordinator's return, so the post-join adoption/merge reads
//    plain memory.
//
// BUSY markers reuse the Forward encodings with payload/length 1 (the
// real markers use 0). The mutator can produce neither: Forward-kind
// immediates and Forward-kind headers are collector-internal. Both
// comparisons are against exact bits — Value::isForwardMarker and
// headerKind tests are kind-based and would also match BUSY.
//
//===----------------------------------------------------------------------===//

#include "gc/ParallelScavenge.h"

#include <algorithm>
#include <cstring>

#include "gc/GcWorkerPool.h"
#include "gc/Roots.h"

using namespace gengc;

thread_local ParallelScavenge::Worker *ParallelScavenge::CurrentWorker =
    nullptr;

namespace {

/// Final and in-progress forwarding words for pairs (tagged immediates).
const uintptr_t PairForwardBits = Value::forwardMarker().bits();
const uintptr_t PairBusyBits = PairForwardBits | (uintptr_t{1} << 8);

/// Final and in-progress forwarding words for typed objects (headers).
constexpr uintptr_t TypedForwardBits = makeHeader(ObjectKind::Forward, 0);
constexpr uintptr_t TypedBusyBits = makeHeader(ObjectKind::Forward, 1);

} // namespace

ParallelScavenge::ParallelScavenge(Collector &C, unsigned G,
                                   unsigned Workers)
    : C(C), H(C.H), G(G), T(C.T), NumWorkers(Workers) {
  GENGC_ASSERT(Workers >= 2, "parallel scavenge needs >= 2 workers");
  WorkerStates.resize(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    WorkerStates[I].Index = I;
}

void ParallelScavenge::run(uint64_t &PhaseCursor) {
  GcTelemetry &Tel = H.Telemetry;
  // In the parallel scheme the Roots / RememberedSets phases only *build*
  // work packets; the forwarding they name happens inside Copy, where
  // the workers drain the queue. The phases still tile the pause.
  {
    PhaseTimer PT(Tel, C.S, GcPhase::Roots, PhaseCursor);
    buildRootPackets();
  }
  {
    PhaseTimer PT(Tel, C.S, GcPhase::RememberedSets, PhaseCursor);
    buildRememberedPackets();
  }
  {
    PhaseTimer PT(Tel, C.S, GcPhase::Copy, PhaseCursor);
    C.Par = this;
    H.gcWorkerPool().runJob(
        NumWorkers, [this](unsigned I) { workerLoop(WorkerStates[I]); });
    C.Par = nullptr;
    adoptLanesAndMerge();
  }
}

//===----------------------------------------------------------------------===//
// Packet building (coordinator, pre-fork).
//===----------------------------------------------------------------------===//

void ParallelScavenge::buildRootPackets() {
  for (Value *Slot : H.RootSlots)
    Slots.push_back(Slot);
  for (RootVector *Vec : H.RootVectors)
    for (Value &V : Vec->slots())
      Slots.push_back(&V);
  // External scanners guarantee stable slot storage while registered,
  // so collecting the pointers now and forwarding them on a worker is
  // equivalent to the serial visit.
  for (auto &Entry : H.ExternalRootScanners)
    Entry.second([this](Value *Slot) { Slots.push_back(Slot); });
  if (!H.Cfg.WeakSymbolTable)
    for (auto &Entry : H.SymbolTable)
      Words.push_back(&Entry.second);

  for (size_t B = 0, E = Slots.size(); B < E; B += SlotPacketSize) {
    WorkItem Item;
    Item.Kind = WorkKind::ValueSlots;
    Item.Begin = B;
    Item.End = std::min(B + SlotPacketSize, E);
    Queue.push_back(Item);
  }
  for (size_t B = 0, E = Words.size(); B < E; B += SlotPacketSize) {
    WorkItem Item;
    Item.Kind = WorkKind::WordSlots;
    Item.Begin = B;
    Item.End = std::min(B + SlotPacketSize, E);
    Queue.push_back(Item);
  }
}

void ParallelScavenge::buildRememberedPackets() {
  // Same snapshot-and-clear as the serial processRememberedSets; the
  // per-container keep/drop decision is made by whichever worker scans
  // the container and replayed into the sets after the join.
  for (unsigned I = G + 1; I < H.Cfg.Generations; ++I) {
    if (H.Remembered[I].empty())
      continue;
    H.Remembered[I].snapshotInto(H.SetSnapshot);
    H.Remembered[I].clear();
    for (uintptr_t Bits : H.SetSnapshot)
      RememberedItems.push_back({Bits, I});
  }
  for (size_t B = 0, E = RememberedItems.size(); B < E;
       B += RememberedPacketSize) {
    WorkItem Item;
    Item.Kind = WorkKind::Remembered;
    Item.Begin = B;
    Item.End = std::min(B + RememberedPacketSize, E);
    Queue.push_back(Item);
  }
}

//===----------------------------------------------------------------------===//
// The worker fixpoint.
//===----------------------------------------------------------------------===//

void ParallelScavenge::workerLoop(Worker &W) {
  CurrentWorker = &W;
  W.StartNanos = H.Telemetry.now();
  for (;;) {
    // Drain our own lanes first: newly copied objects are scanned by
    // their copier with no synchronization at all.
    if (scanOwnLanes(W))
      continue;
    WorkItem Item;
    bool HaveItem = false;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      for (;;) {
        if (!Queue.empty()) {
          Item = Queue.front();
          Queue.pop_front();
          HaveItem = true;
          ++W.StealAttempts;
          break;
        }
        // Idle-count termination: the last worker to find both its
        // lanes and the queue empty proves the global fixpoint — no
        // in-flight worker can publish more work.
        ++IdleCount;
        if (IdleCount == NumWorkers) {
          Done = true;
          QueueCv.notify_all();
          break;
        }
        QueueCv.wait(Lock, [this] { return Done || !Queue.empty(); });
        if (Done)
          break;
        --IdleCount;
        // Re-check: another woken worker may have drained the queue.
      }
    }
    if (!HaveItem)
      break;
    if (Item.Publisher != ~0u && Item.Publisher != W.Index)
      ++W.StealHits;
    executeItem(Item, W);
  }
  W.EndNanos = H.Telemetry.now();
  CurrentWorker = nullptr;
}

bool ParallelScavenge::scanOwnLanes(Worker &W) {
  bool Progress = false;
  bool Any = true;
  while (Any) {
    Any = false;
    for (unsigned Gen = 0; Gen <= T; ++Gen)
      for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
        Any |= scanOwnLane(W, SpaceKind::Pair, Gen, Age);
        Any |= scanOwnLane(W, SpaceKind::Typed, Gen, Age);
        Any |= scanOwnLane(W, SpaceKind::WeakPair, Gen, Age);
        // The data space is pointerless; nothing to scan.
      }
    Progress |= Any;
  }
  return Progress;
}

bool ParallelScavenge::scanOwnLane(Worker &W, SpaceKind Space, unsigned Gen,
                                   unsigned Age) {
  const unsigned Sp = static_cast<unsigned>(Space);
  SpaceContext &Ctx = W.Lanes[Sp][Gen][Age];
  Collector::SweepCursor &Cur = W.LaneCursors[Sp][Gen][Age];
  bool Progress = false;

  while (true) {
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    if (Cur.RunIndex >= Runs.size())
      break;
    const size_t Used = Ctx.usedWordsOf(H.Segments, Cur.RunIndex);
    if (Cur.OffsetWords >= Used) {
      if (Cur.RunIndex + 1 < Runs.size()) {
        // Allocation has raced ahead of the scan by at least one whole
        // run. Runs strictly between the cursor and the live run are
        // sealed and untouched by us: publish them for stealing — this
        // is what spreads one giant structure across workers — and jump
        // to the live run.
        publishRuns(W, Ctx, Cur.RunIndex + 1, Runs.size() - 1, Space, Gen);
        Cur.RunIndex = Runs.size() - 1;
        Cur.OffsetWords = 0;
        continue;
      }
      break; // Caught up with the allocation frontier.
    }
    // rootcheck:allow(segment-base) — lane scan is the allocation walk.
    uintptr_t *Base = H.Segments.segmentBase(Runs[Cur.RunIndex].FirstSegment);
    C.sweepSpan(Base + Cur.OffsetWords, Base + Used, Space, Gen);
    Cur.OffsetWords = Used;
    Progress = true;
  }
  return Progress;
}

void ParallelScavenge::publishRuns(Worker &W, const SpaceContext &Ctx,
                                   size_t BeginRun, size_t EndRun,
                                   SpaceKind Space, unsigned Gen) {
  if (BeginRun >= EndRun)
    return;
  const std::vector<SegmentRun> &Runs = Ctx.runs();
  std::vector<WorkItem> Items;
  for (size_t I = BeginRun; I != EndRun; ++I) {
    const SegmentRun &R = Runs[I];
    if (R.UsedWords == 0)
      continue;
    // rootcheck:allow(segment-base) — publishing our own sealed run.
    uintptr_t *Base = H.Segments.segmentBase(R.FirstSegment);
    WorkItem Item;
    Item.Kind = WorkKind::ScanRange;
    Item.Publisher = W.Index;
    Item.ScanBegin = Base;
    Item.ScanEnd = Base + R.UsedWords;
    Item.Space = Space;
    Item.Gen = static_cast<uint8_t>(Gen);
    Items.push_back(Item);
  }
  if (Items.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    for (const WorkItem &Item : Items)
      Queue.push_back(Item);
  }
  QueueCv.notify_all();
}

void ParallelScavenge::executeItem(const WorkItem &Item, Worker &W) {
  switch (Item.Kind) {
  case WorkKind::ValueSlots:
    for (size_t I = Item.Begin; I != Item.End; ++I) {
      C.forwardSlot(Slots[I]);
      ++W.RootsScanned;
    }
    break;
  case WorkKind::WordSlots:
    for (size_t I = Item.Begin; I != Item.End; ++I) {
      C.forwardWord(Words[I]);
      ++W.RootsScanned;
    }
    break;
  case WorkKind::Remembered:
    for (size_t I = Item.Begin; I != Item.End; ++I) {
      const auto &R = RememberedItems[I];
      Value Container = Value::fromBits(R.first);
      C.forwardRememberedObject(Container);
      ++W.RememberedScanned;
      if (C.pointsBelowGeneration(Container, R.second))
        W.KeptRemembered.push_back(R);
    }
    break;
  case WorkKind::ScanRange:
    C.sweepSpan(Item.ScanBegin, Item.ScanEnd, Item.Space, Item.Gen);
    break;
  }
}

//===----------------------------------------------------------------------===//
// CAS forwarding.
//===----------------------------------------------------------------------===//

Value ParallelScavenge::forwardShared(Value V, const SegmentInfo &Info) {
  unsigned NewGen, NewAge;
  C.targetFor(Info.Generation, Info.Age, NewGen, NewAge);
  const uint64_t Promoted = NewGen > Info.Generation ? 1 : 0;
  const unsigned Sp = static_cast<unsigned>(Info.Space);
  Worker &W = *CurrentWorker;

  if (V.isPair()) {
    uintptr_t *Cell = reinterpret_cast<uintptr_t *>(V.pairCell());
    uintptr_t Car = __atomic_load_n(&Cell[0], __ATOMIC_ACQUIRE);
    for (;;) {
      if (Car == PairForwardBits)
        return Value::fromBits(__atomic_load_n(&Cell[1], __ATOMIC_ACQUIRE));
      if (Car == PairBusyBits) { // Another worker is mid-copy: spin.
        Car = __atomic_load_n(&Cell[0], __ATOMIC_ACQUIRE);
        continue;
      }
      if (__atomic_compare_exchange_n(&Cell[0], &Car, PairBusyBits,
                                      /*weak=*/false, __ATOMIC_ACQUIRE,
                                      __ATOMIC_ACQUIRE))
        break; // Claimed; Car holds the pre-claim car.
      // CAS failure reloaded Car; loop classifies it.
    }
    uintptr_t *NewCell = W.Lanes[Sp][NewGen][NewAge].allocate(
        H.Segments, Info.Space, static_cast<uint8_t>(NewGen), 2,
        static_cast<uint8_t>(NewAge));
    NewCell[0] = Car;
    NewCell[1] = Cell[1]; // Post-claim, only we touch the old cell.
    Value NewV = Value::pair(reinterpret_cast<PairCell *>(NewCell));
    __atomic_store_n(&Cell[1], NewV.bits(), __ATOMIC_RELEASE);
    __atomic_store_n(&Cell[0], PairForwardBits, __ATOMIC_RELEASE);
    ++W.ObjectsCopied;
    W.BytesCopied += 2 * sizeof(uintptr_t);
    W.ObjectsPromoted += Promoted;
    if (H.ForwardWitness) {
      std::lock_guard<std::mutex> Lock(WitnessM);
      H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
    }
    return NewV;
  }

  uintptr_t *Header = V.objectHeader();
  uintptr_t H0 = __atomic_load_n(&Header[0], __ATOMIC_ACQUIRE);
  for (;;) {
    if (H0 == TypedForwardBits)
      return Value::fromBits(__atomic_load_n(&Header[1], __ATOMIC_ACQUIRE));
    if (H0 == TypedBusyBits) {
      H0 = __atomic_load_n(&Header[0], __ATOMIC_ACQUIRE);
      continue;
    }
    if (__atomic_compare_exchange_n(&Header[0], &H0, TypedBusyBits,
                                    /*weak=*/false, __ATOMIC_ACQUIRE,
                                    __ATOMIC_ACQUIRE))
      break; // Claimed; H0 holds the real header.
  }
  const size_t Words = objectSizeInWords(H0);
  const size_t AllocWords = objectAllocWords(H0);
  uintptr_t *NewObj = W.Lanes[Sp][NewGen][NewAge].allocate(
      H.Segments, Info.Space, static_cast<uint8_t>(NewGen), AllocWords,
      static_cast<uint8_t>(NewAge));
  NewObj[0] = H0;
  std::memcpy(NewObj + 1, Header + 1, (Words - 1) * sizeof(uintptr_t));
  if (AllocWords > Words)
    NewObj[Words] = 0; // Deterministic padding for the verifier.
  Value NewV = Value::object(NewObj);
  __atomic_store_n(&Header[1], NewV.bits(), __ATOMIC_RELEASE);
  __atomic_store_n(&Header[0], TypedForwardBits, __ATOMIC_RELEASE);
  ++W.ObjectsCopied;
  W.BytesCopied += AllocWords * sizeof(uintptr_t);
  W.ObjectsPromoted += Promoted;
  if (H.ForwardWitness) {
    std::lock_guard<std::mutex> Lock(WitnessM);
    H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
  }
  return NewV;
}

void ParallelScavenge::bufferReRemember(unsigned ContainerGen,
                                        uintptr_t ContainerBits) {
  CurrentWorker->ReRemember.push_back({ContainerBits, ContainerGen});
}

//===----------------------------------------------------------------------===//
// Post-join adoption and merge (coordinator).
//===----------------------------------------------------------------------===//

void ParallelScavenge::adoptLanesAndMerge() {
  GENGC_ASSERT(Done && Queue.empty(), "workers joined before fixpoint");
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    for (unsigned Gen = 0; Gen <= T; ++Gen)
      for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
        SpaceContext &Canon = H.Contexts[Sp][Gen][Age];
        for (Worker &W : WorkerStates)
          Canon.adoptRuns(H.Segments, W.Lanes[Sp][Gen][Age]);
        // Every adopted object was scanned during the fixpoint (or is
        // pointerless data), so the serial sweep — rerun by the
        // guardian phase — resumes at the new frontier.
        if (Canon.runs().empty()) {
          C.Cursors[Sp][Gen][Age] = Collector::SweepCursor{0, 0};
        } else {
          const size_t Last = Canon.runs().size() - 1;
          C.Cursors[Sp][Gen][Age] = Collector::SweepCursor{
              Last, Canon.usedWordsOf(H.Segments, Last)};
        }
      }

  uint64_t MaxBytes = 0;
  for (const Worker &W : WorkerStates) {
    C.S.ObjectsCopied += W.ObjectsCopied;
    C.S.BytesCopied += W.BytesCopied;
    C.S.ObjectsPromoted += W.ObjectsPromoted;
    C.S.RootsScanned += W.RootsScanned;
    C.S.RememberedObjectsScanned += W.RememberedScanned;
    C.S.StealAttempts += W.StealAttempts;
    C.S.StealHits += W.StealHits;
    MaxBytes = std::max(MaxBytes, W.BytesCopied);
  }
  C.S.GcWorkersUsed = NumWorkers;
  C.S.MaxWorkerBytesCopied = MaxBytes;

  // Replay deferred remembered-set work in worker order. PtrHashSet
  // membership is order-independent; replay order only affects internal
  // layout, never which containers are remembered.
  for (const Worker &W : WorkerStates) {
    for (const auto &R : W.KeptRemembered)
      H.Remembered[R.second].insert(R.first);
    for (const auto &R : W.ReRemember)
      H.Remembered[R.second].insert(R.first);
  }

  if (H.Telemetry.TraceEnabled) {
    // The ring is single-writer; worker spans are emitted here, by the
    // coordinator, after the join.
    for (const Worker &W : WorkerStates) {
      GcEvent E;
      E.Type = GcEventType::GcWorkerSpan;
      E.TimeNanos = W.StartNanos;
      E.DurNanos = W.EndNanos - W.StartNanos;
      E.A = W.BytesCopied;
      E.B = W.StealHits;
      E.Collection = static_cast<uint32_t>(C.S.CollectionIndex);
      E.Generation = static_cast<uint8_t>(C.S.CollectedGeneration);
      E.Detail = static_cast<uint16_t>(W.Index);
      H.Telemetry.emit(E);
    }
  }
}

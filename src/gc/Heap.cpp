//===- gc/Heap.cpp - The mutator-facing heap ------------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "gc/Collector.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "gc/Tconc.h"
#include "gc/telemetry/TraceExport.h"
#include "heap/DonatedGraph.h"

using namespace gengc;

namespace {

/// GENGC_STRESS environment override: "1"/"on"/"yes" forces stress mode
/// on, "0"/"off"/"no" forces it off, unset/other leaves the configured
/// default. Lets CI run the same test binaries with and without stress.
void applyStressEnvironment(HeapConfig &Cfg) {
  const char *Env = std::getenv("GENGC_STRESS");
  if (!Env)
    return;
  std::string_view V(Env);
  if (V == "1" || V == "on" || V == "yes" || V == "ON") {
    Cfg.StressGC = true;
    Cfg.PoisonFromSpace = true;
  } else if (V == "0" || V == "off" || V == "no" || V == "OFF") {
    Cfg.StressGC = false;
  }
}

} // namespace

Heap::Heap(HeapConfig Config)
    : Cfg(Config), Segments(Config.ArenaBytes),
      Exchange(Config.Exchange ? Config.Exchange : &processExchange()),
      OwnerThread(std::this_thread::get_id()) {
  GENGC_ASSERT(Cfg.Generations >= 1 && Cfg.Generations <= MaxGenerations,
               "generation count out of range");
  GENGC_ASSERT(Cfg.CollectionRadix >= 2, "collection radix must be >= 2");
  GENGC_ASSERT(Cfg.StressInterval >= 1, "stress interval must be >= 1");
  applyStressEnvironment(Cfg);
  initTelemetry(Telemetry, Cfg);
  Profiler.init(Cfg);
  if (Telemetry.TraceEnabled) {
    // Segment traffic flows straight from the arena into the event
    // ring; with tracing off the arena's observer slot stays null.
    Segments.setSegmentObserver(
        [](void *Ctx, bool IsAlloc, uint32_t First, uint32_t Count,
           SpaceKind Space, uint8_t Generation) {
          Heap *H = static_cast<Heap *>(Ctx);
          GcEvent E;
          E.Type = IsAlloc ? GcEventType::SegmentAlloc
                           : GcEventType::SegmentFree;
          E.TimeNanos = H->Telemetry.now();
          E.A = First;
          E.B = Count;
          // During a collection the collector has not yet bumped
          // Totals.Collections, so the in-flight index is Collections+1.
          E.Collection = H->InGc
                             ? static_cast<uint32_t>(H->Totals.Collections + 1)
                             : 0;
          E.Generation = Generation;
          E.Detail = static_cast<uint16_t>(Space);
          H->Telemetry.emit(E);
        },
        this);
  }
}

Heap::~Heap() {
  if (Telemetry.TraceEnabled && !Telemetry.TraceDumpPath.empty())
    dumpChromeTraceToFile(Telemetry, Telemetry.TraceDumpPath);
  if (Profiler.enabled() && !Profiler.dumpPath().empty())
    Profiler.dumpToFile(Profiler.dumpPath());
}

//===----------------------------------------------------------------------===//
// Allocation.
//===----------------------------------------------------------------------===//

void Heap::checkOwner(const char *Op) const {
  if (!Cfg.CheckThreadAffinity || onOwnerThread())
    return;
  std::fprintf(stderr,
               "gengc fatal error: %s called from a thread that does not "
               "own this heap (shards are single-threaded: cross-shard "
               "access must go through the runtime mailbox, not the raw "
               "Heap; see src/runtime/)\n",
               Op);
  std::abort();
}

uintptr_t *Heap::allocateRaw(SpaceKind Space, size_t Words) {
  checkOwner("allocation");
  GENGC_ASSERT(!NoAllocMode,
               "allocation inside a register-for-finalization thunk: the "
               "thunk runs as part of garbage collection and must not "
               "cause another collection (Section 2)");
  GENGC_ASSERT(NoGcScopeDepth == 0,
               "allocation inside a NoGcScope: the scope promises the "
               "collector cannot run, so allocating (a safepoint) here "
               "is a rooting-discipline violation");
  const size_t Bytes = Words * sizeof(uintptr_t);
  TotalBytesAllocated += Bytes;
  uintptr_t *W;
  if (!ScopeStack.empty()) {
    // In-scope allocation bumps into the innermost scope's private
    // nursery. Scope garbage is reclaimed wholesale at closeScope, so
    // it is not charged against the generation-0 collection budget;
    // the bytes that survive (escape) are charged when the scope
    // closes. StressGC still collects on schedule — its trigger is the
    // safepoint counter, not the byte budget.
    ScopedGeneration &SG = *ScopeStack.back();
    W = SG.Contexts[static_cast<unsigned>(Space)].allocate(
        Segments, Space, 0, Words, static_cast<uint8_t>(SG.Depth));
  } else {
    BytesSinceGc += Bytes;
    if (BytesSinceGc >= Cfg.Gen0CollectBytes)
      GcPending = true;
    W = Contexts[static_cast<unsigned>(Space)][0].allocate(Segments, Space,
                                                           0, Words);
  }
  // Allocation-site sampling: tick() is a single compare of the
  // just-updated allocation counter against the profiler's threshold
  // (UINT64_MAX when disarmed). The tagged bits recorded for survival
  // tracking follow the space's representation (pair spaces hold bare
  // cells, typed/data spaces header-tagged objects).
  if (Profiler.tick(TotalBytesAllocated))
    Profiler.recordSample(
        (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair)
            ? Value::pair(reinterpret_cast<PairCell *>(W)).bits()
            : Value::object(W).bits(),
        TotalBytesAllocated);
  return W;
}

void Heap::pollSafepoint() {
  if (InGc || !Cfg.AutoCollect || InSafepointCollection ||
      InPostGcHooks || NoGcScopeDepth != 0)
    return;
  // StressGC: force a full collection every StressInterval-th allocation
  // safepoint, invalidating any unrooted Value at the earliest possible
  // moment. Only public entry points poll, so multi-allocation sequences
  // inside a single Heap call (e.g. intern's string+symbol) stay atomic,
  // matching the normal safepoint contract.
  if (Cfg.StressGC && ++SafepointsSinceStress >= Cfg.StressInterval) {
    SafepointsSinceStress = 0;
    GcPending = false;
    InSafepointCollection = true;
    collect(oldestGeneration());
    if (CollectRequestHandler)
      CollectRequestHandler(*this);
    InSafepointCollection = false;
    return;
  }
  if (!GcPending)
    return;
  GcPending = false;
  unsigned G = chooseAutomaticGeneration();
  InSafepointCollection = true;
  collect(G);
  if (CollectRequestHandler)
    CollectRequestHandler(*this);
  InSafepointCollection = false;
}

unsigned Heap::chooseAutomaticGeneration() {
  // Collect generation g every CollectionRadix^g automatic collections:
  // "the older the generation, the less frequently it is collected".
  ++AutomaticCollections;
  unsigned G = 0;
  uint64_t Period = 1;
  for (unsigned I = 1; I < Cfg.Generations; ++I) {
    Period *= Cfg.CollectionRadix;
    if (AutomaticCollections % Period == 0)
      G = I;
  }
  return G;
}

Value Heap::consRaw(Value Car, Value Cdr) {
  uintptr_t *W = allocateRaw(SpaceKind::Pair, 2);
  W[0] = Car.bits();
  W[1] = Cdr.bits();
  return Value::pair(reinterpret_cast<PairCell *>(W));
}

Value Heap::cons(Value Car, Value Cdr) {
  Root RCar(*this, Car), RCdr(*this, Cdr);
  pollSafepoint();
  return consRaw(RCar, RCdr);
}

Value Heap::weakCons(Value Car, Value Cdr) {
  Root RCar(*this, Car), RCdr(*this, Cdr);
  pollSafepoint();
  uintptr_t *W = allocateRaw(SpaceKind::WeakPair, 2);
  W[0] = RCar.get().bits();
  W[1] = RCdr.get().bits();
  Value P = Value::pair(reinterpret_cast<PairCell *>(W));
  // A freshly allocated weak pair is in generation 0, so its car cannot
  // point to a younger generation; no weak remembered entry is needed
  // until it is promoted or mutated.
  return P;
}

Value Heap::makeVector(size_t Length, Value Fill) {
  Root RFill(*this, Fill);
  pollSafepoint();
  uintptr_t Header = makeHeader(ObjectKind::Vector, Length);
  uintptr_t *W = allocateRaw(SpaceKind::Typed, objectAllocWords(Header));
  W[0] = Header;
  for (size_t I = 0; I != Length; ++I)
    W[1 + I] = RFill.get().bits();
  return Value::object(W);
}

Value Heap::makeStringRaw(std::string_view Contents) {
  uintptr_t Header = makeHeader(ObjectKind::String, Contents.size());
  uintptr_t *W = allocateRaw(SpaceKind::Data, objectAllocWords(Header));
  W[0] = Header;
  // Zero the padded tail so the heap verifier sees deterministic bytes.
  size_t PayloadWords = objectAllocWords(Header) - 1;
  std::memset(W + 1, 0, PayloadWords * sizeof(uintptr_t));
  std::memcpy(W + 1, Contents.data(), Contents.size());
  return Value::object(W);
}

Value Heap::makeString(std::string_view Contents) {
  pollSafepoint();
  return makeStringRaw(Contents);
}

Value Heap::makeBytevector(size_t Length) {
  pollSafepoint();
  uintptr_t Header = makeHeader(ObjectKind::Bytevector, Length);
  uintptr_t *W = allocateRaw(SpaceKind::Data, objectAllocWords(Header));
  W[0] = Header;
  std::memset(W + 1, 0, (objectAllocWords(Header) - 1) * sizeof(uintptr_t));
  return Value::object(W);
}

Value Heap::makeFlonum(double D) {
  pollSafepoint();
  uintptr_t Header = makeHeader(ObjectKind::Flonum, 0);
  uintptr_t *W = allocateRaw(SpaceKind::Data, 2);
  W[0] = Header;
  std::memcpy(W + 1, &D, sizeof(double));
  return Value::object(W);
}

Value Heap::makeBox(Value V) {
  Root RV(*this, V);
  pollSafepoint();
  uintptr_t *W = allocateRaw(SpaceKind::Typed, 2);
  W[0] = makeHeader(ObjectKind::Box, 0);
  W[1] = RV.get().bits();
  return Value::object(W);
}

Value Heap::makeRecord(Value Tag, size_t FieldCount, Value Fill) {
  GENGC_ASSERT(FieldCount >= 1, "records have at least the tag field");
  Root RTag(*this, Tag), RFill(*this, Fill);
  pollSafepoint();
  uintptr_t Header = makeHeader(ObjectKind::Record, FieldCount);
  uintptr_t *W = allocateRaw(SpaceKind::Typed, objectAllocWords(Header));
  W[0] = Header;
  W[1] = RTag.get().bits();
  for (size_t I = 1; I != FieldCount; ++I)
    W[1 + I] = RFill.get().bits();
  return Value::object(W);
}

Value Heap::makeClosure(Value Clauses, Value Env, Value Name) {
  Root RClauses(*this, Clauses), REnv(*this, Env), RName(*this, Name);
  pollSafepoint();
  uintptr_t *W =
      allocateRaw(SpaceKind::Typed, 1 + ClosureFieldCount);
  W[0] = makeHeader(ObjectKind::Closure, ClosureFieldCount);
  W[1 + CloClauses] = RClauses.get().bits();
  W[1 + CloEnv] = REnv.get().bits();
  W[1 + CloName] = RName.get().bits();
  return Value::object(W);
}

Value Heap::makePrimitive(intptr_t Index, intptr_t MinArgs, intptr_t MaxArgs,
                          Value Name) {
  Root RName(*this, Name);
  pollSafepoint();
  uintptr_t *W = allocateRaw(SpaceKind::Typed, 1 + PrimitiveFieldCount);
  W[0] = makeHeader(ObjectKind::Primitive, PrimitiveFieldCount);
  W[1 + PrimIndex] = Value::fixnum(Index).bits();
  W[1 + PrimMinArgs] = Value::fixnum(MinArgs).bits();
  W[1 + PrimMaxArgs] = Value::fixnum(MaxArgs).bits();
  W[1 + PrimName] = RName.get().bits();
  return Value::object(W);
}

Value Heap::makePortHandle(intptr_t PortIdV, intptr_t Direction) {
  pollSafepoint();
  uintptr_t *W = allocateRaw(SpaceKind::Typed, 1 + PortHandleFieldCount);
  W[0] = makeHeader(ObjectKind::PortHandle, PortHandleFieldCount);
  W[1 + PortId] = Value::fixnum(PortIdV).bits();
  W[1 + PortDirection] = Value::fixnum(Direction).bits();
  return Value::object(W);
}

Value Heap::makeSymbolRaw(Value NameString) {
  uintptr_t *W = allocateRaw(SpaceKind::Typed, 1 + SymbolFieldCount);
  W[0] = makeHeader(ObjectKind::Symbol, SymbolFieldCount);
  W[1 + SymName] = NameString.bits();
  W[1 + SymHash] = Value::fixnum(0).bits();
  W[1 + SymPlist] = Value::nil().bits();
  return Value::object(W);
}

Value Heap::intern(std::string_view Name) {
  pollSafepoint();
  auto It = SymbolTable.find(std::string(Name));
  if (It != SymbolTable.end())
    return Value::fromBits(It->second);
  // No safepoint between these two allocations, so the fresh string
  // cannot move before the symbol captures it.
  Value Str = makeStringRaw(Name);
  Value Sym = makeSymbolRaw(Str);
  SymbolEntry &Entry =
      *SymbolTable.emplace(std::string(Name), Sym.bits()).first;
  // Generation 0, or the innermost scope the symbol was just allocated in.
  symbolListFor(Sym).push_back(&Entry);
  return Sym;
}

std::string Heap::symbolName(Value Symbol) const {
  GENGC_ASSERT(isSymbol(Symbol), "symbolName on non-symbol");
  Value Str = objectField(Symbol, SymName);
  return std::string(stringData(Str), objectLength(Str));
}

Value Heap::makeUninternedSymbol(std::string_view Name) {
  pollSafepoint();
  Value Str = makeStringRaw(Name);
  return makeSymbolRaw(Str);
}

Value Heap::makeList(const std::vector<Value> &Elements) {
  RootVector Rooted(*this);
  for (Value V : Elements)
    Rooted.push_back(V);
  Root Result(*this, Value::nil());
  for (size_t I = Elements.size(); I != 0; --I)
    Result = cons(Rooted[I - 1], Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Barriered mutation.
//===----------------------------------------------------------------------===//

void Heap::recordStore(Value Container, Value V, bool WeakField) {
  if (!V.isHeapPointer())
    return;
  if (!ScopeStack.empty()) {
    scopeBarrier(Container, V, WeakField);
    return;
  }
  const SegmentInfo &CInfo = segInfo(Container.heapAddress());
  if (CInfo.Generation == 0)
    return;
  const SegmentInfo &VInfo = segInfo(V.heapAddress());
  if (VInfo.Generation >= CInfo.Generation)
    return;
  if (WeakField)
    WeakRemembered[CInfo.Generation].insert(Container.bits());
  else
    Remembered[CInfo.Generation].insert(Container.bits());
}

void Heap::writeBarrier(Value Container, Value V, bool WeakField) {
  checkOwner("barriered store");
  ++BarriersExecutedTotal;
  recordStore(Container, V, WeakField);
}

void Heap::scopeBarrier(Value Container, Value V, bool WeakField) {
  // A store of a deeper-scope value into a shallower container is the
  // scope analogue of an old-to-young store: the container becomes an
  // evacuation root (escape) for the value's scope. Checked before the
  // generational early-outs because even a generation-0 container can
  // hold the only outside reference into a scope.
  const SegmentInfo &CInfo = segInfo(Container.heapAddress());
  const SegmentInfo &VInfo = segInfo(V.heapAddress());
  if (VInfo.ScopeDepth > CInfo.ScopeDepth) {
    ScopedGeneration &SG = *ScopeStack[VInfo.ScopeDepth - 1];
    (WeakField ? SG.WeakEscapes : SG.Escapes).insert(Container.bits());
    return;
  }
  if (CInfo.ScopeDepth != 0)
    return; // Scope container, same-or-shallower value: the container
            // either dies with its scope or is rescanned when it
            // graduates; no set needs the edge.
  if (CInfo.Generation == 0)
    return;
  if (VInfo.Generation >= CInfo.Generation)
    return;
  if (WeakField)
    WeakRemembered[CInfo.Generation].insert(Container.bits());
  else
    Remembered[CInfo.Generation].insert(Container.bits());
}

void Heap::setCar(Value Pair, Value V) {
  GENGC_ASSERT(Pair.isPair(), "setCar on non-pair");
  writeBarrier(Pair, V, /*WeakField=*/isWeakPair(Pair));
  pairSetCarRaw(Pair, V);
}

void Heap::setCdr(Value Pair, Value V) {
  GENGC_ASSERT(Pair.isPair(), "setCdr on non-pair");
  // The cdr of a weak pair is an ordinary (strong) pointer.
  writeBarrier(Pair, V, /*WeakField=*/false);
  pairSetCdrRaw(Pair, V);
}

void Heap::vectorSet(Value Vector, size_t Index, Value V) {
  GENGC_ASSERT(isVector(Vector), "vectorSet on non-vector");
  GENGC_ASSERT(Index < objectLength(Vector), "vectorSet index out of range");
  writeBarrier(Vector, V, /*WeakField=*/false);
  objectFieldSetRaw(Vector, Index, V);
}

void Heap::boxSet(Value Box, Value V) {
  GENGC_ASSERT(isBox(Box), "boxSet on non-box");
  writeBarrier(Box, V, /*WeakField=*/false);
  objectFieldSetRaw(Box, 0, V);
}

void Heap::recordSet(Value Record, size_t Index, Value V) {
  GENGC_ASSERT(isRecord(Record), "recordSet on non-record");
  writeBarrier(Record, V, /*WeakField=*/false);
  objectFieldSetRaw(Record, Index, V);
}

void Heap::objectFieldSet(Value Object, size_t Index, Value V) {
  GENGC_ASSERT(Object.isObject(), "objectFieldSet on non-object");
  GENGC_ASSERT(kindHasPointers(objectKind(Object)),
               "objectFieldSet on pointerless object");
  writeBarrier(Object, V, /*WeakField=*/false);
  objectFieldSetRaw(Object, Index, V);
}

//===----------------------------------------------------------------------===//
// Inspection.
//===----------------------------------------------------------------------===//

unsigned Heap::generationOf(Value V) const {
  if (!V.isHeapPointer())
    return 0;
  return segInfo(V.heapAddress()).Generation;
}

unsigned Heap::scopeDepthOf(Value V) const {
  if (!V.isHeapPointer())
    return 0;
  return segInfo(V.heapAddress()).ScopeDepth;
}

bool Heap::isWeakPair(Value V) const {
  return V.isPair() &&
         segInfo(V.heapAddress()).Space == SpaceKind::WeakPair;
}

SpaceKind Heap::spaceOf(Value V) const {
  GENGC_ASSERT(V.isHeapPointer(), "spaceOf on non-heap value");
  return segInfo(V.heapAddress()).Space;
}

const SegmentInfo &Heap::exchangeInfo(uintptr_t Address) const {
  return Exchange->infoFor(Address);
}

Heap::GenerationUsage Heap::generationUsage(unsigned Generation) const {
  GENGC_ASSERT(Generation < Cfg.Generations, "bad generation");
  GenerationUsage Usage;
  for (unsigned S = 0; S != NumSpaces; ++S) {
    const SpaceContext &Ctx = Contexts[S][Generation];
    for (const SegmentRun &R : Ctx.runs())
      Usage.SegmentCount += R.SegmentCount;
    Usage.UsedBytes += Ctx.usedWords(Segments) * sizeof(uintptr_t);
  }
  // Adopted donation runs are tenured space of the oldest generation.
  if (Generation == oldestGeneration())
    for (unsigned S = 0; S != NumSpaces; ++S)
      for (const SegmentRun &R : AdoptedRuns[S]) {
        Usage.SegmentCount += R.SegmentCount;
        Usage.UsedBytes += static_cast<size_t>(R.UsedWords) *
                           sizeof(uintptr_t);
      }
  return Usage;
}

size_t Heap::liveBytes() const {
  size_t Words = 0;
  for (unsigned S = 0; S != NumSpaces; ++S)
    for (unsigned G = 0; G != Cfg.Generations; ++G)
      Words += Contexts[S][G].usedWords(Segments);
  for (const auto &SG : ScopeStack)
    for (unsigned S = 0; S != NumSpaces; ++S)
      Words += SG->Contexts[S].usedWords(Segments);
  for (unsigned S = 0; S != NumSpaces; ++S)
    for (const SegmentRun &R : AdoptedRuns[S])
      Words += R.UsedWords;
  return Words * sizeof(uintptr_t);
}

//===----------------------------------------------------------------------===//
// Guardians.
//===----------------------------------------------------------------------===//

Value Heap::makeGuardianTconc() {
  pollSafepoint();
  // (let ([z (cons #f '())]) (cons z z))
  Value Z = consRaw(Value::falseV(), Value::nil());
  return consRaw(Z, Z);
}

void Heap::guardianProtect(Value Tconc, Value Obj) {
  checkOwner("guardianProtect");
  GENGC_ASSERT(Tconc.isPair(), "guardian tconc must be a pair");
  // install-guardian adds the (obj . tconc) entry to the protected list
  // for generation 0 — or, when a participant lives in an open request
  // scope, to that scope's own list so the entry is processed at the
  // scope's close. The agent defaults to the object itself.
  protectedListFor(Obj, Tconc, Obj)
      .push_back({Obj.bits(), Tconc.bits(), Obj.bits()});
}

void Heap::guardianProtectWithAgent(Value Tconc, Value Obj, Value Agent) {
  checkOwner("guardianProtectWithAgent");
  GENGC_ASSERT(Tconc.isPair(), "guardian tconc must be a pair");
  protectedListFor(Obj, Tconc, Agent)
      .push_back({Obj.bits(), Tconc.bits(), Agent.bits()});
}

Value Heap::guardianRetrieve(Value Tconc) {
  checkOwner("guardianRetrieve");
  GENGC_ASSERT(Tconc.isPair(), "guardian tconc must be a pair");
  // Figure 4. The mutator owns the header's car; no critical section is
  // needed even if a collection intervenes, because the collector only
  // appends at the tail.
  if (pairCar(Tconc) == pairCdr(Tconc))
    return Value::falseV();
  Value X = pairCar(Tconc);
  Value Y = pairCar(X);
  setCar(Tconc, pairCdr(X));
  // Clear the vacated cell: it is sometimes in an older generation than
  // the objects it points to, and retaining the pointers "may result in
  // unnecessary storage retention". #f is an immediate, so these two
  // stores can never create an old-to-young edge and need no barrier.
  pairSetCarRaw(X, Value::falseV());
  pairSetCdrRaw(X, Value::falseV());
  BarriersElidedTotal += 2;
  return Y;
}

bool Heap::guardianHasPending(Value Tconc) const {
  GENGC_ASSERT(Tconc.isPair(), "guardian tconc must be a pair");
  return pairCar(Tconc) != pairCdr(Tconc);
}

Value Heap::makeGuardianObject() {
  Root Tconc(*this, makeGuardianTconc());
  pollSafepoint();
  uintptr_t *W = allocateRaw(SpaceKind::Typed, 1 + GuardianFieldCount);
  W[0] = makeHeader(ObjectKind::Guardian, GuardianFieldCount);
  W[1 + GuardTconc] = Tconc.get().bits();
  return Value::object(W);
}

void gengc::tconcAppend(Heap &H, Value Tconc, Value Obj) {
  Root RT(H, Tconc), RO(H, Obj);
  Value NewLast = H.cons(Value::falseV(), Value::falseV());
  tconcAppendWithCell(H, RT, RO, NewLast);
}

//===----------------------------------------------------------------------===//
// register-for-finalization baseline.
//===----------------------------------------------------------------------===//

uint32_t Heap::registerForFinalization(Value Obj, FinalizerThunk Thunk) {
  checkOwner("registerForFinalization");
  uint32_t Id = static_cast<uint32_t>(FinalizerThunks.size());
  FinalizerThunks.push_back(std::move(Thunk));
  FinalizeLists[0].push_back({Obj.bits(), Id});
  return Id;
}

//===----------------------------------------------------------------------===//
// Collection and roots.
//===----------------------------------------------------------------------===//

void Heap::collect(unsigned MaxGeneration) {
  checkOwner("collect");
  GENGC_ASSERT(!InGc, "re-entrant collection");
  GENGC_ASSERT(!InPostGcHooks,
               "collection requested from inside a post-GC hook: hooks "
               "may allocate but must not collect (the statistics "
               "snapshot they are reading would be clobbered)");
  GENGC_ASSERT(NoGcScopeDepth == 0,
               "explicit collection inside a NoGcScope");
  Collector C(*this);
  C.run(std::min(MaxGeneration, oldestGeneration()));
  Telemetry.recordHistory(LastStats);
  if (Telemetry.LogEnabled)
    logCollectionLine(LastStats);
  // Hooks run with automatic collection deferred (see addPostGcHook),
  // so a hook that allocates can never recurse into collect() and the
  // LastStats reference stays valid for the whole pass.
  InPostGcHooks = true;
  for (auto &Hook : PostGcHooks)
    Hook(*this, LastStats);
  InPostGcHooks = false;
}

void Heap::addRoot(Value *Slot) {
  checkOwner("addRoot");
  RootSlots.push_back(Slot);
}

void Heap::removeRoot(Value *Slot) {
  checkOwner("removeRoot");
  // Roots are overwhelmingly removed in LIFO order (RAII), so search
  // from the back.
  for (size_t I = RootSlots.size(); I != 0; --I) {
    if (RootSlots[I - 1] == Slot) {
      RootSlots.erase(RootSlots.begin() + static_cast<ptrdiff_t>(I - 1));
      return;
    }
  }
  GENGC_UNREACHABLE("removeRoot: slot was not registered");
}

void Heap::addRootVector(RootVector *Vec) {
  checkOwner("addRootVector");
  RootVectors.push_back(Vec);
}

void Heap::removeRootVector(RootVector *Vec) {
  checkOwner("removeRootVector");
  for (size_t I = RootVectors.size(); I != 0; --I) {
    if (RootVectors[I - 1] == Vec) {
      RootVectors.erase(RootVectors.begin() + static_cast<ptrdiff_t>(I - 1));
      return;
    }
  }
  GENGC_UNREACHABLE("removeRootVector: vector was not registered");
}

uint32_t Heap::addExternalRootScanner(ExternalRootScanner Scanner) {
  checkOwner("addExternalRootScanner");
  uint32_t Id = NextExternalScannerId++;
  ExternalRootScanners.emplace_back(Id, std::move(Scanner));
  return Id;
}

void Heap::removeExternalRootScanner(uint32_t Id) {
  checkOwner("removeExternalRootScanner");
  for (size_t I = ExternalRootScanners.size(); I != 0; --I) {
    if (ExternalRootScanners[I - 1].first == Id) {
      ExternalRootScanners.erase(ExternalRootScanners.begin() +
                                 static_cast<ptrdiff_t>(I - 1));
      return;
    }
  }
  GENGC_UNREACHABLE("removeExternalRootScanner: id was not registered");
}

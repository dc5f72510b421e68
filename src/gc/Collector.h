//===- gc/Collector.h - Stop-and-copy generational collector --*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One evacuation. "The collector performs a stop-and-copy collection
/// from the generations being collected into the target generation"
/// (Section 4). A Collector instance is created per evacuation and
/// discarded afterwards. It has two entry points, which differ only in
/// what they name:
///   - run(G), a collection (Heap::collect): the from-space is
///     generations 0..G (plus adopted donation runs on a full
///     collection), the extra roots are the remembered sets of the
///     older generations, and the lists are protected, symbol and
///     weak-remembered lists 0..G;
///   - runScopeClose(Scope), a scope close (Heap::closeScope): the
///     from-space is the scope's contexts, the extra roots are its
///     escape set, and the lists are its own.
///
/// Both then run the same phases, following Section 4, over an explicit
/// to-space (the ToSpaces list):
///   1. detach the from-space and flag its segments; record the to-space
///      contexts with their sweep starts,
///   2. forward the roots and the extra roots,
///   3. Cheney-sweep the to-space contexts to a fixpoint,
///   4. process the guardian protected lists (the paper's pend-hold /
///      pend-final loop with kleene-sweep between rounds),
///   5. process register-for-finalization lists (baseline mechanism),
///   6. second pass over weak pairs — after the protected lists, "so if
///      the car field of a weak pair points to an object that has been
///      salvaged, the object will still be in the car field after
///      collection",
///   7. update the (weak) symbol table, free the from-space, run queued
///      finalizer thunks with allocation disabled.
/// A collection times each phase (PhaseTimer) and traces it; a scope
/// close does neither.
///
/// Promotion follows the paper's simple strategy: every survivor of a
/// collection of generation g is copied into the target generation
/// T = min(g+1, n). So the to-space is exactly one context per space:
/// generation T's in a collection, and in a scope close the enclosing
/// scope's, or generation 0's for an outermost close. No copy can land
/// in a generation older than an object it points to, so the sweep
/// never has to re-record a container in the remembered sets.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_COLLECTOR_H
#define GENGC_GC_COLLECTOR_H

#include <cstdint>
#include <vector>

#include "gc/Heap.h"

namespace gengc {

struct ScopedGeneration;

class Collector {
public:
  explicit Collector(Heap &H) : H(H) {}

  /// Collects generations 0..G.
  void run(unsigned G);

  /// Closes the innermost request scope (gc/ScopedGeneration.h): the
  /// scope's segments become the from-space, survivors graduate into the
  /// enclosing scope (or the ordinary generation 0), and the scope's own
  /// guardian fixpoint, weak pass, and symbol-table pass run over the
  /// dying extent. NOT a collection: fills \p Out instead of GcStats,
  /// and bumps no collection counters. Defined in gc/ScopedGeneration.cpp.
  void runScopeClose(ScopedGeneration &Scope, ScopeCloseStats &Out);

private:
  /// Position within a SpaceContext's run list, in allocation order.
  /// Trivial, so the ToSpaces array costs nothing to construct.
  struct SweepCursor {
    size_t RunIndex;
    size_t OffsetWords;
  };

  /// The context every copy of one space lands in: where it allocates
  /// from (always in the private arena), the tags its new runs get, and
  /// the two positions the evacuation walks from.
  struct ToSpace {
    SpaceContext *Ctx;
    SpaceKind Space;
    uint8_t Generation, ScopeDepth;
    /// The frontier when the evacuation began: everything past it was
    /// copied by this evacuation (the weak pass starts here).
    SweepCursor Start;
    /// The Cheney scan pointer.
    SweepCursor Scan;

    uintptr_t *allocate(Arena &A, size_t Words) {
      return Ctx->allocate(A, Space, Generation, Words, ScopeDepth);
    }
  };

  //===--- Evacuation -----------------------------------------------------===//

  /// The phases both entry points share, from detaching the from-space to
  /// recording the pause. The entry point has set StartNanos (and
  /// ClosingScope for a close).
  void evacuate(unsigned G);
  /// Runs one phase: timed under a PhaseTimer in a collection, untimed
  /// in a scope close.
  template <typename Fn> void phase(GcPhase P, Fn Body);
  /// Sets \p Space's to-space entry to \p Ctx, with its sweep at the
  /// context's current frontier.
  void addToSpace(SpaceContext &Ctx, SpaceKind Space, unsigned Gen,
                  unsigned ScopeDepth);
  /// Dickey-style finalization thunks queued by the evacuation, run with
  /// allocation disabled once its statistics are published.
  void runFinalizerThunks();

  //===--- Copying --------------------------------------------------------===//

  /// The paper's forward(obj): copies a from-space object to its target
  /// to-space context — preserving its space — and installs a
  /// forwarding marker; returns the (possibly pre-existing) new
  /// location. Non-heap values and objects outside the from-space are
  /// returned unchanged.
  Value forward(Value V) {
    const SegmentInfo *Info = nullptr;
    return mayMove(V, Info) ? forwardFromSpace(V, Info) : V;
  }

  /// The inline half of forward(): false for non-heap values and for
  /// private-arena objects outside the from-space, which every sweep
  /// meets far more often than objects it must copy. Otherwise sets
  /// \p Info to the value's private-arena segment info, or to null for
  /// an exchange-arena value (an adopted donation), which
  /// forwardFromSpace classifies out of line: that lookup needs the
  /// exchange arena.
  bool mayMove(Value V, const SegmentInfo *&Info) const {
    if (!V.isHeapPointer())
      return false;
    Info = H.Segments.findInfo(V.heapAddress());
    return !Info || Info->isFromSpace();
  }

  /// The out-of-line half of forward(), for a value mayMove() let
  /// through: the exchange-arena classification, the forwarded test,
  /// and the copy.
  Value forwardFromSpace(Value V, const SegmentInfo *Info);

  /// Allocates \p Words for the copy of an object from a from-space
  /// segment described by \p Info, in its space's to-space context, and
  /// sets \p Promoted when that context is in an older generation.
  uintptr_t *allocateCopy(const SegmentInfo &Info, size_t Words,
                          uint64_t &Promoted);

  /// The paper's forwarded?(obj): "true when obj has been forwarded
  /// during this collection or when it resides in a generation older
  /// than those being collected". Also true for non-heap values.
  bool isForwarded(Value V) const {
    if (!V.isHeapPointer() || !H.segInfo(V.heapAddress()).isFromSpace())
      return true;
    if (V.isPair())
      return Value::fromBits(V.pairCell()->Car).isForwardMarker();
    return headerKind(*V.objectHeader()) == ObjectKind::Forward;
  }

  /// The paper's get-fwd-addr(obj): the forwarding address, or the
  /// object itself when it was not subject to collection.
  Value forwardedAddress(Value V) const {
    if (!V.isHeapPointer() || !H.segInfo(V.heapAddress()).isFromSpace())
      return V;
    if (V.isPair()) {
      GENGC_ASSERT(Value::fromBits(V.pairCell()->Car).isForwardMarker(),
                   "get-fwd-addr on unforwarded pair");
      return Value::fromBits(V.pairCell()->Cdr);
    }
    GENGC_ASSERT(headerKind(*V.objectHeader()) == ObjectKind::Forward,
                 "get-fwd-addr on unforwarded object");
    return Value::fromBits(V.objectHeader()[1]);
  }

  /// Survival sweep of the allocation-site profiler's sampled-object
  /// table: forwarded samples have their bits updated and credit
  /// SurvivedBytes, dead ones credit DeadBytes and leave the table.
  /// Runs while from-space is still intact (the table is not a root —
  /// sampling never keeps an object alive).
  void sweepAllocProfiler();

  /// Forward one root slot / heap word in place. A value that cannot
  /// move is left alone: no call, no store.
  void forwardSlot(Value *Slot) {
    const SegmentInfo *Info = nullptr;
    if (mayMove(*Slot, Info))
      *Slot = forwardFromSpace(*Slot, Info);
  }
  void forwardWord(uintptr_t *Word) {
    const Value V = Value::fromBits(*Word);
    const SegmentInfo *Info = nullptr;
    if (mayMove(V, Info))
      *Word = forwardFromSpace(V, Info).bits();
  }

  //===--- Sweeping -------------------------------------------------------===//

  /// The paper's kleene-sweep(g): "iteratively sweeps copied objects
  /// until there are no newly copied objects to sweep", over the
  /// to-space contexts.
  void kleeneSweep();
  /// The one cursor-to-frontier walk: sets [\p P, \p End) to the next
  /// span of \p Ctx from \p Cur, in allocation order, and moves \p Cur
  /// past it; false once \p Cur has caught up with the allocation
  /// frontier. The frontier is re-read at each call, so whatever the
  /// caller allocates into \p Ctx while visiting a span is visited too.
  bool nextSpan(const SpaceContext &Ctx, SweepCursor &Cur, uintptr_t *&P,
                uintptr_t *&End);
  /// Cheney-sweeps \p Ctx from \p Cur to its frontier: the to-space
  /// sweep, and the open-scope root scan from {0, 0}.
  bool sweepRange(const SpaceContext &Ctx, SweepCursor &Cur, SpaceKind Space);
  /// Sweeps the objects in [\p P, \p End) of one run of \p Space, in
  /// address order. \p End must be an object boundary.
  void sweepSpan(uintptr_t *P, uintptr_t *End, SpaceKind Space);
  void sweepPairAt(uintptr_t *Cell, bool Weak);
  void sweepTypedAt(uintptr_t *Header);

  //===--- Phases ---------------------------------------------------------===//

  /// Setup: detaches the from-space, builds the to-space list, and clears
  /// the collected generations' remembered sets.
  void setUpSpaces(unsigned G);
  /// Flags every run of \p Runs (in arena \p A) as from-space and
  /// counts its bytes.
  void markFromSpace(Arena &A, const std::vector<SegmentRun> &Runs);
  void forwardRoots();
  void processRememberedSets(unsigned G);
  void forwardRememberedObject(Value Container);
  /// The injected faults that lose one remembered-set or escape-set
  /// record (GcFaultInjection::DropRememberedEntry, ::LeakScopeEscape):
  /// clears \p Container's strong fields that point into from-space to
  /// #f instead of forwarding them, so the object it kept alive dies
  /// while no pointer is left dangling.
  void dropFromSpaceFields(Value Container);
  bool pointsBelowGeneration(Value Container, unsigned Generation) const;
  void processGuardians(unsigned G);
  /// One fixpoint round's deliveries: forwards each H.FinalList agent in
  /// list order and appends it to its tconc (Figure 3), batched per
  /// tconc, publishing each header's cdr once per round (DESIGN.md §2,
  /// "Batched tconc publication").
  void deliverToTconcs(bool &FaultDroppedOne);
  /// The round's batch for (forwarded) \p Tconc, opened on first use.
  Heap::TconcBatch &batchFor(Value Tconc);
  void processFinalizeLists(unsigned G);
  void weakPairPass(unsigned G);
  /// fixWeakCar over every weak pair of \p Ctx from \p Cur to its
  /// frontier.
  void fixWeakCars(const SpaceContext &Ctx, SweepCursor Cur);
  void fixWeakCar(Value WeakPair);
  /// The weak symbol table's collection: visits the symbol lists of the
  /// collected extent (generations 0..G, or the closing scope's list),
  /// drops entries whose symbol died and re-parks the survivors.
  void updateSymbolTable(unsigned G);
  void sweepSymbolList(std::vector<Heap::SymbolEntry *> &List);
  void freeFromSpace();
  /// Poisons (under HeapConfig::PoisonFromSpace), counts and frees the
  /// from-space runs of one arena, then empties \p Runs.
  void releaseRuns(Arena &A, std::vector<SegmentRun> &Runs);
  /// A fresh tconc cell in the pair to-space context.
  uintptr_t *allocateTconcCell();

  /// Re-parks a surviving (already forwarded) guardian entry: on the
  /// protected list of the deepest open scope any participant lives in,
  /// else on the list of the youngest participant generation, so the
  /// entry is revisited whenever any participant may move or die. Outside
  /// scopes that is the target generation, as in the paper.
  void parkProtectedEntry(Value Obj, Value Tconc, Value Agent);

  //===--- Request scopes (gc/ScopedGeneration.cpp) ----------------------===//

  /// Ordinary collections with scopes open treat every scope object as
  /// an uncollected root container: one full scan of each open scope's
  /// contexts, forwarding strong fields (weak cars are left for
  /// scopeWeakContextPass). Runs in the Roots phase.
  void scanOpenScopes();
  /// Weak-car pass over every open scope's weak-pair context (their cars
  /// may point into the collected generations).
  void scopeWeakContextPass();
  /// Rebuilds every open scope's escape sets after the copy: from-space
  /// containers that were forwarded are re-inserted under their new
  /// bits, dead ones are dropped. Must run before freeFromSpace (it
  /// reads forwarding markers).
  void fixupScopeEscapes();

  /// Scope-close halves of the phases (defined in
  /// gc/ScopedGeneration.cpp): the closing scope's from-space, its
  /// enclosing extent as the to-space, its escape roots, its weak
  /// escapes, and the escape sets of the extent it graduates into.
  void scopeSetUpSpaces(ScopedGeneration &Scope);
  void scopeForwardEscapeRoots(ScopedGeneration &Scope);
  void scopeWeakEscapePass(ScopedGeneration &Scope);
  void propagateScopeEscapes(ScopedGeneration &Scope);

  Heap &H;
  GcStats S;
  unsigned T = 0; ///< Target generation (the paper's min(g+1, n)).
  /// The scope being closed, or null in a collection. Only the entry
  /// points' differences test it: which from-space, extra roots and lists
  /// the phases visit, and that a close is neither timed nor traced.
  ScopedGeneration *ClosingScope = nullptr;

  /// Finalizer thunks queued by processFinalizeLists.
  std::vector<uint32_t> ThunkQueue;
  /// Start of the pause, and the chain the phase timers tile it with
  /// (see PhaseTimer).
  uint64_t StartNanos = 0;
  uint64_t PhaseCursor = 0;

  /// The to-space, indexed by space: generation T's contexts in a
  /// collection, the enclosing extent's in a scope close.
  ToSpace ToSpaces[NumSpaces];
};

} // namespace gengc

#endif // GENGC_GC_COLLECTOR_H

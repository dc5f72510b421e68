//===- tests/gc/scoped_generation_test.cpp - Request scopes (§12) --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Directed tests for request-scoped ephemeral generations (DESIGN.md
// §12): LIFO nesting, escape-driven graduation, guardian resurrection
// at scope exit (matching full-collection order), weak-pair breaking
// for scope-dying cars, collections with scopes open, and the stress/
// poison schedule. The statistical coverage lives in the gcfuzz scoped
// corpus; these are the readable specimens.
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

/// The stress schedule: a full collection at every allocation
/// safepoint, with reclaimed memory poisoned. Scope extents are exempt
/// from the collector's from-space (they are collected only at close),
/// so every scope invariant must hold with collections raging around
/// the open scopes.
HeapConfig stressConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.StressGC = true;
  C.PoisonFromSpace = true;
  return C;
}

TEST(ScopedGenerationTest, NestedLifoDiscipline) {
  Heap H(testConfig());
  EXPECT_EQ(H.scopeDepth(), 0u);
  H.openScope();
  Root D1(H, H.cons(Value::fixnum(1), Value::nil()));
  EXPECT_EQ(H.scopeDepth(), 1u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 1u);
  H.openScope();
  Root D2(H, H.cons(Value::fixnum(2), Value::nil()));
  EXPECT_EQ(H.scopeDepth(), 2u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 2u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 1u)
      << "outer-scope objects keep their depth while inner scopes open";
  // Closing the inner scope graduates its rooted survivor to depth 1.
  H.closeScope();
  EXPECT_EQ(H.scopeDepth(), 1u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 1u);
  EXPECT_EQ(pairCar(D2.get()).asFixnum(), 2);
  H.closeScope();
  EXPECT_EQ(H.scopeDepth(), 0u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 0u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 0u);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, NestedGraduatesOpenRunsAtTheEnclosingDepth) {
  // The enclosing scope holds no pairs, so the inner close opens the
  // first run of its pair context: that run must carry the enclosing
  // scope's depth, not the ordinary generation 0's.
  Heap H(testConfig());
  H.openScope();
  Root Outer(H, H.makeVector(1, Value::falseV()));
  H.openScope();
  Root Inner(H, H.cons(Value::fixnum(7), Value::nil()));
  H.vectorSet(Outer, 0, Inner);
  H.closeScope();
  EXPECT_EQ(H.scopeDepthOf(Inner.get()), 1u);
  EXPECT_EQ(objectField(Outer.get(), 0).bits(), Inner.get().bits());
  H.verifyHeap();
  H.closeScope();
  EXPECT_EQ(H.scopeDepthOf(Inner.get()), 0u);
  EXPECT_EQ(pairCar(Inner.get()).asFixnum(), 7);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, ScopedExtentIsRaii) {
  Heap H(testConfig());
  {
    ScopedExtent Outer(H);
    EXPECT_EQ(H.scopeDepth(), 1u);
    {
      ScopedExtent Inner(H);
      EXPECT_EQ(H.scopeDepth(), 2u);
    }
    EXPECT_EQ(H.scopeDepth(), 1u);
  }
  EXPECT_EQ(H.scopeDepth(), 0u);
}

// The heart of the mechanism: a store of a scope pointer into an old
// object is observed by the write barrier (the scope's escape set), so
// at close the referent graduates instead of dying with the scope.
TEST(ScopedGenerationTest, EscapeViaOldStoreGraduates) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::falseV(), Value::nil()));
  H.collectFull(); // Promote the container out of generation 0.
  H.openScope();
  {
    Root Inner(H, H.cons(Value::fixnum(42), Value::fixnum(43)));
    H.setCar(Old.get(), Inner.get()); // old -> scope: escape recorded.
  }
  // The only strong reference now lives in the old pair's car.
  H.closeScope();
  const ScopeCloseStats &S = H.lastScopeClose();
  EXPECT_GE(S.ObjectsEvacuated, 1u);
  Value Esc = pairCar(Old.get());
  ASSERT_TRUE(Esc.isPair());
  EXPECT_EQ(H.scopeDepthOf(Esc), 0u);
  EXPECT_EQ(pairCar(Esc).asFixnum(), 42);
  EXPECT_EQ(pairCdr(Esc).asFixnum(), 43);
  H.verifyHeap();
}

// The same escape from a generation-0 container outside the scope. The
// barrier tests for open scopes before its young-container early-out,
// because a young container can hold the only outside reference into a
// scope just as an old one can.
TEST(ScopedGenerationTest, EscapeViaYoungStoreGraduates) {
  Heap H(testConfig());
  Root Young(H, H.cons(Value::falseV(), Value::nil()));
  ASSERT_EQ(H.generationOf(Young.get()), 0u);
  H.openScope();
  {
    Root Inner(H, H.cons(Value::fixnum(42), Value::fixnum(43)));
    H.setCar(Young.get(), Inner.get()); // young -> scope: escape recorded.
  }
  H.closeScope();
  EXPECT_GE(H.lastScopeClose().ObjectsEvacuated, 1u)
      << "the young container's escape was not recorded";
  Value Esc = pairCar(Young.get());
  ASSERT_TRUE(Esc.isPair());
  EXPECT_EQ(H.scopeDepthOf(Esc), 0u);
  EXPECT_EQ(pairCar(Esc).asFixnum(), 42);
  EXPECT_EQ(pairCdr(Esc).asFixnum(), 43);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, UnreachableScopeObjectsDieUntraced) {
  Heap H(testConfig());
  H.openScope();
  for (int I = 0; I != 1000; ++I)
    (void)H.cons(Value::fixnum(I), Value::nil()); // All garbage.
  Root Kept(H, H.cons(Value::fixnum(7), Value::nil()));
  H.closeScope();
  const ScopeCloseStats &S = H.lastScopeClose();
  EXPECT_GT(S.BytesInScope, S.BytesEvacuated)
      << "the garbage cons cells must not be evacuated";
  EXPECT_EQ(pairCar(Kept.get()).asFixnum(), 7);
  const ScopeTotals &T = H.scopeTotals();
  EXPECT_EQ(T.ScopesOpened, 1u);
  EXPECT_EQ(T.ScopesClosed, 1u);
  EXPECT_EQ(T.BytesReclaimed, S.BytesInScope - S.BytesEvacuated);
  H.verifyHeap();
}

// Guardian resurrection at scope exit must match what a full collection
// would deliver: same tconc, same entry order, objects intact. Run the
// identical protect sequence both ways and compare the retrieve
// transcripts.
TEST(ScopedGenerationTest, GuardianResurrectionOrderMatchesFullGc) {
  auto runScenario = [](bool Scoped) {
    Heap H(testConfig());
    Guardian G(H);
    if (Scoped)
      H.openScope();
    {
      Root A(H, H.cons(H.intern("first"), Value::nil()));
      Root B(H, H.cons(H.intern("second"), Value::nil()));
      G.protect(A.get());
      G.protect(B.get());
    } // Both inaccessible.
    if (Scoped)
      H.closeScope();
    else
      H.collectFull();
    std::vector<std::string> Order;
    for (Value V = G.retrieve(); !V.isFalse(); V = G.retrieve()) {
      EXPECT_TRUE(V.isPair());
      Order.push_back(H.symbolName(pairCar(V)));
    }
    H.verifyHeap();
    return Order;
  };
  const std::vector<std::string> AtExit = runScenario(/*Scoped=*/true);
  const std::vector<std::string> AtGc = runScenario(/*Scoped=*/false);
  ASSERT_EQ(AtExit.size(), 2u);
  EXPECT_EQ(AtExit, AtGc)
      << "scope-exit resurrection order must match full-GC order";
  EXPECT_EQ(AtExit[0], "first");
  EXPECT_EQ(AtExit[1], "second");
}

// A scope object that graduates (still reachable) must NOT be
// delivered at scope exit; its guardian entry re-parks and fires at a
// later proof of inaccessibility, exactly like a survivor of an
// ordinary collection.
TEST(ScopedGenerationTest, ReachableGuardedObjectReparksAtScopeExit) {
  Heap H(testConfig());
  Guardian G(H);
  H.openScope();
  Root Kept(H, H.cons(Value::fixnum(5), Value::nil()));
  G.protect(Kept.get());
  H.closeScope();
  EXPECT_TRUE(G.retrieve().isFalse())
      << "still rooted: must not be resurrected at scope exit";
  EXPECT_GE(H.lastScopeClose().ProtectedEntriesKept, 1u);
  Kept = Value::nil();
  H.collectFull();
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair()) << "re-parked entry fires at the later GC";
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 5);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, WeakPairBrokenForScopeDyingCar) {
  Heap H(testConfig());
  Root Dying(H, Value::nil()), Escaping(H, Value::nil());
  // A generation-1 weak pair whose car is set to a scope object.
  Root OldWeak(H, H.weakCons(Value::falseV(), Value::nil()));
  H.collectMinor();
  ASSERT_EQ(H.generationOf(OldWeak.get()), 1u);
  H.openScope();
  {
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), Value::nil()));
    Dying = H.weakCons(A.get(), Value::nil());
    Escaping = H.weakCons(B.get(), B.get()); // Strong ref via the cdr.
    H.setCar(OldWeak.get(), B.get());
  }
  H.closeScope();
  EXPECT_TRUE(pairCar(Dying.get()).isFalse())
      << "weak car of a scope-dying object breaks at close";
  ASSERT_TRUE(pairCar(Escaping.get()).isPair())
      << "weak car of a graduating object is updated, not broken";
  EXPECT_EQ(pairCar(pairCar(Escaping.get())).asFixnum(), 2);
  EXPECT_GE(H.lastScopeClose().WeakPointersBroken, 1u);
  // The old pair's car graduated into generation 0: the close records
  // the pair in generation 1's weak remembered set (verifyHeap checks),
  // so the next minor collection updates the car when it moves again.
  EXPECT_EQ(pairCar(OldWeak.get()), pairCar(Escaping.get()));
  H.verifyHeap();
  H.collectMinor();
  EXPECT_EQ(pairCar(OldWeak.get()), pairCar(Escaping.get()));
  EXPECT_EQ(pairCar(pairCar(OldWeak.get())).asFixnum(), 2);
  H.verifyHeap();
}

// Ordinary collections — including full ones — must run correctly with
// scopes open: scope residents are exempt from the collected extent
// (their segments are not from-space) but their outgoing pointers into
// the ladder are scope-held roots.
TEST(ScopedGenerationTest, FullGcWhileScopesOpen) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::fixnum(10), Value::nil()));
  H.openScope();
  Root InScope(H, H.cons(Value::fixnum(20), Old.get()));
  H.openScope();
  // An inner-scope object pointing at a generation-0 object: the
  // collection must trace through the scope resident.
  Root YoungTarget(H, H.cons(Value::fixnum(30), Value::nil()));
  Root Inner(H, H.cons(YoungTarget.get(), InScope.get()));
  YoungTarget = Value::nil();
  H.collectFull();
  EXPECT_EQ(H.scopeDepth(), 2u) << "collection must not disturb scopes";
  EXPECT_EQ(H.scopeDepthOf(Inner.get()), 2u);
  EXPECT_EQ(H.scopeDepthOf(InScope.get()), 1u);
  ASSERT_TRUE(pairCar(Inner.get()).isPair());
  EXPECT_EQ(pairCar(pairCar(Inner.get())).asFixnum(), 30);
  EXPECT_EQ(pairCar(pairCdr(Inner.get())).asFixnum(), 20);
  H.verifyHeap();
  H.closeScope();
  H.closeScope();
  EXPECT_EQ(pairCar(pairCar(Inner.get())).asFixnum(), 30);
  H.verifyHeap();
}

// A collection with a scope open delivers a Section 5 agent that stays
// in the scope. The second delivery to a tconc fills a fresh tail cell,
// allocated in the target generation outside the scope, so that cell's
// car is an outside pointer into the scope: the scope's escape set must
// hold it, or the close reclaims the agent under the guardian's queue.
TEST(ScopedGenerationTest, FreshTconcCellKeepsInScopeAgentAlive) {
  Heap H(testConfig());
  Guardian G(H);
  Root First(H, H.cons(Value::fixnum(1), Value::nil()));
  Root Second(H, H.cons(Value::fixnum(2), Value::nil()));
  ASSERT_EQ(H.generationOf(Second.get()), 0u);
  H.openScope();
  {
    Root Agent(H, H.cons(Value::fixnum(42), Value::fixnum(43)));
    ASSERT_EQ(H.scopeDepthOf(Agent.get()), 1u);
    G.protect(First.get()); // Fills the tconc's pre-existing tail cell.
    G.protectWithAgent(Second.get(), Agent.get());
  }
  First = Value::nil();
  Second = Value::nil();
  H.verifyHeap();
  H.collect(0);
  H.verifyHeap();
  H.closeScope();
  H.verifyHeap();
  Root X(H, G.retrieve());
  ASSERT_TRUE(X.get().isPair());
  EXPECT_EQ(pairCar(X.get()).asFixnum(), 1);
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair()) << "the in-scope agent was not delivered";
  EXPECT_EQ(H.scopeDepthOf(Y.get()), 0u) << "the agent graduates at close";
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 42);
  EXPECT_EQ(pairCdr(Y.get()).asFixnum(), 43);
  EXPECT_TRUE(G.retrieve().isFalse());
  H.verifyHeap();
}

// The same request-churn shape under the stress schedule: a full
// poisoning collection at every safepoint while scopes open, allocate,
// escape, and close. Any scope segment wrongly treated as from-space,
// any unpoisoned stale pointer, or any missed escape dies loudly here.
TEST(ScopedGenerationTest, RequestChurnUnderStressAndPoison) {
  Heap H(stressConfig());
  Root Keep(H, H.makeVector(8, Value::falseV()));
  for (int Request = 0; Request != 25; ++Request) {
    ScopedExtent Extent(H);
    Root Local(H, Value::nil());
    for (int I = 0; I != 40; ++I)
      Local = H.cons(Value::fixnum(Request * 100 + I), Local.get());
    // One value escapes per request via a barriered old-store.
    H.vectorSet(Keep.get(), Request % 8, Local.get());
  }
  for (size_t I = 0; I != 8; ++I) {
    Value Chain = objectField(Keep.get(), I);
    ASSERT_TRUE(Chain.isPair());
    EXPECT_EQ(H.scopeDepthOf(Chain), 0u);
  }
  EXPECT_EQ(H.scopeDepth(), 0u);
  EXPECT_EQ(H.scopeTotals().ScopesClosed, 25u);
  H.collectFull();
  H.verifyHeap();
}

// Nested request churn with guardians under stress: inner scopes
// protect, close, and deliver while outer scopes stay open.
TEST(ScopedGenerationTest, NestedGuardianChurnUnderStress) {
  Heap H(stressConfig());
  Guardian G(H);
  unsigned Delivered = 0;
  for (int Outer = 0; Outer != 6; ++Outer) {
    ScopedExtent OuterExtent(H);
    for (int Inner = 0; Inner != 4; ++Inner) {
      ScopedExtent InnerExtent(H);
      {
        Root Doomed(H, H.cons(Value::fixnum(Outer * 10 + Inner),
                              Value::nil()));
        G.protect(Doomed.get());
      }
    } // Each inner close must deliver its doomed pair.
    for (Value V = G.retrieve(); !V.isFalse(); V = G.retrieve()) {
      EXPECT_TRUE(V.isPair());
      ++Delivered;
    }
  }
  EXPECT_EQ(Delivered, 24u)
      << "every inner-scope doomed object is delivered exactly once";
  H.verifyHeap();
}

} // namespace

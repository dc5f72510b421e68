//===- tests/gc/weak_pair_test.cpp - Weak pair semantics -----------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

TEST(WeakPairTest, CarDoesNotRetain) {
  Heap H(testConfig());
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(1), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
  }
  H.collectMinor();
  EXPECT_TRUE(pairCar(W.get()).isFalse())
      << "weak pointer must be broken when only weak refs remain";
  H.verifyHeap();
}

TEST(WeakPairTest, CarUpdatedWhenObjectLives) {
  Heap H(testConfig());
  Root X(H, H.cons(Value::fixnum(1), Value::nil()));
  Root W(H, H.weakCons(X.get(), Value::nil()));
  H.collectMinor();
  EXPECT_EQ(pairCar(W.get()), X.get())
      << "weak car must be forwarded to the object's new address";
  EXPECT_EQ(pairCar(pairCar(W.get())).asFixnum(), 1);
  H.verifyHeap();
}

TEST(WeakPairTest, CdrIsStrong) {
  Heap H(testConfig());
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(2), Value::nil()));
    W = H.weakCons(Value::nil(), X.get());
  }
  H.collectMinor();
  Value Cdr = pairCdr(W.get());
  ASSERT_TRUE(Cdr.isPair()) << "cdr ('link') field is a normal pointer";
  EXPECT_EQ(pairCar(Cdr).asFixnum(), 2);
  H.verifyHeap();
}

TEST(WeakPairTest, ImmediateCarUntouched) {
  Heap H(testConfig());
  Root W(H, H.weakCons(Value::fixnum(7), Value::nil()));
  H.collectFull();
  EXPECT_EQ(pairCar(W.get()).asFixnum(), 7);
}

TEST(WeakPairTest, WeakPairSurvivesPromotion) {
  Heap H(testConfig());
  Root X(H, H.cons(Value::fixnum(1), Value::nil()));
  Root W(H, H.weakCons(X.get(), Value::nil()));
  for (int I = 0; I != 5; ++I) {
    H.collectFull();
    ASSERT_TRUE(H.isWeakPair(W.get())) << "weakness survives copying";
    ASSERT_EQ(pairCar(W.get()), X.get());
  }
  // Drop the target; even in the oldest generation the pointer breaks.
  X = Value::nil();
  H.collectFull();
  EXPECT_TRUE(pairCar(W.get()).isFalse());
  H.verifyHeap();
}

TEST(WeakPairTest, BreakOnlyWhenNoStrongPointersAnywhere) {
  Heap H(testConfig());
  Root Strong(H, Value::nil());
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(3), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
    Strong = H.cons(X.get(), Value::nil()); // Strong ref via another pair.
  }
  H.collectMinor();
  EXPECT_TRUE(pairCar(W.get()).isPair())
      << "strong pointer exists; weak pointer must survive";
  Strong = Value::nil();
  H.collect(1); // X was promoted to generation 1.
  EXPECT_TRUE(pairCar(W.get()).isFalse());
}

TEST(WeakPairTest, ChainOfWeakPairs) {
  Heap H(testConfig());
  // A list whose spine is weak pairs: cars weak, cdrs strong.
  Root Objs(H, Value::nil());
  RootVector Keep(H);
  Root List(H, Value::nil());
  for (int I = 0; I != 10; ++I) {
    Root X(H, H.cons(Value::fixnum(I), Value::nil()));
    if (I % 2 == 0)
      Keep.push_back(X.get()); // Keep even elements alive.
    List = H.weakCons(X.get(), List.get());
  }
  H.collectMinor();
  int Broken = 0, Live = 0;
  for (Value L = List.get(); L.isPair(); L = pairCdr(L)) {
    if (pairCar(L).isFalse())
      ++Broken;
    else
      ++Live;
  }
  EXPECT_EQ(Broken, 5);
  EXPECT_EQ(Live, 5);
  H.verifyHeap();
}

// The paper's key interaction: "The existence of a weak pointer to an
// object in the car field of a weak pair does not prevent the object
// from being transferred from the accessible list of a guardian to the
// inaccessible list, and the weak pointer is not broken when such a
// transfer is made."
TEST(WeakPairTest, GuardianSalvageKeepsWeakPointerIntact) {
  Heap H(testConfig());
  Guardian G(H);
  Root W(H, Value::nil());
  Root WV(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(42), Value::nil()));
    G.protect(X.get());
    W = H.weakCons(X.get(), Value::nil());
    // A vector spanning several segments, salvaged as one run.
    Root V(H, H.makeVector(1500, Value::fixnum(3)));
    Root Slot0(H, H.cons(Value::fixnum(21), Value::nil()));
    H.vectorSet(V.get(), 0, Slot0.get());
    G.protect(V.get());
    WV = H.weakCons(V.get(), Value::nil());
  }
  H.collectMinor();
  // X was inaccessible, so it moved to G's inaccessible group -- but it
  // was salvaged, so the weak pointer is updated, not broken.
  Value Car = pairCar(W.get());
  ASSERT_TRUE(Car.isPair()) << "weak pointer to salvaged object intact";
  EXPECT_EQ(pairCar(Car).asFixnum(), 42);
  Root Y(H, G.retrieve());
  EXPECT_EQ(Y.get(), Car) << "guardian yields the same salvaged object";
  Root V(H, G.retrieve());
  EXPECT_EQ(V.get(), pairCar(WV.get()));
  ASSERT_EQ(objectLength(V.get()), 1500u);
  EXPECT_EQ(objectField(V.get(), 5).asFixnum(), 3);
  EXPECT_EQ(pairCar(objectField(V.get(), 0)).asFixnum(), 21);
  EXPECT_EQ(H.generationOf(V.get()), 1u)
      << "the salvaged run lands in the target generation";
  // Once retrieved and dropped again (no re-registration), the next
  // collection of their (promoted) generation finally breaks the
  // pointers.
  Y = Value::nil();
  V = Value::nil();
  H.collect(1);
  EXPECT_TRUE(pairCar(W.get()).isFalse());
  EXPECT_TRUE(pairCar(WV.get()).isFalse());
  EXPECT_FALSE(G.hasPending());
  H.verifyHeap();
}

TEST(WeakPairTest, OldWeakPairYoungCarViaMutation) {
  Heap H(testConfig());
  Root W(H, H.weakCons(Value::nil(), Value::nil()));
  H.collect(1); // Promote the weak pair to generation 2.
  ASSERT_GE(H.generationOf(W.get()), 2u);
  {
    Root Young(H, H.cons(Value::fixnum(5), Value::nil()));
    H.setCar(W.get(), Young.get()); // Weak store, old <- young.
    H.collectMinor();
    // Young is still strongly reachable via the Young root.
    ASSERT_TRUE(pairCar(W.get()).isPair());
    EXPECT_EQ(pairCar(pairCar(W.get())).asFixnum(), 5);
  }
  H.collect(1); // The young object was promoted to generation 1.
  EXPECT_TRUE(pairCar(W.get()).isFalse())
      << "young object dies; old weak pair's car must be broken even "
         "though the old pair was not collected";
  H.verifyHeap();
}

TEST(WeakPairTest, OldWeakPairCarSurvivesRepeatedMinorGcs) {
  Heap H(testConfig());
  Root W(H, H.weakCons(Value::nil(), Value::nil()));
  H.collect(2);
  Root Young(H, H.cons(Value::fixnum(8), Value::nil()));
  H.setCar(W.get(), Young.get());
  for (int I = 0; I != 4; ++I) {
    H.collectMinor();
    ASSERT_TRUE(pairCar(W.get()).isPair())
        << "strongly-held young car must keep being forwarded";
    ASSERT_EQ(pairCar(W.get()), Young.get());
  }
  H.verifyHeap();
}

TEST(WeakPairTest, SetCarToImmediateClearsTracking) {
  Heap H(testConfig());
  Root W(H, H.weakCons(Value::nil(), Value::nil()));
  H.collect(1);
  {
    Root Young(H, H.cons(Value::fixnum(1), Value::nil()));
    H.setCar(W.get(), Young.get());
  }
  H.setCar(W.get(), Value::fixnum(123)); // Overwrite before the GC.
  H.collectMinor();
  EXPECT_EQ(pairCar(W.get()).asFixnum(), 123);
  H.verifyHeap();
}

TEST(WeakPairTest, WeakPairsExaminedStatIsProportional) {
  Heap H(testConfig());
  // Park many weak pairs in an old generation.
  RootVector Keep(H);
  for (int I = 0; I != 1000; ++I)
    Keep.push_back(H.weakCons(Value::fixnum(I), Value::nil()));
  H.collect(2);
  H.collectMinor();
  EXPECT_EQ(H.lastStats().WeakPairsExamined, 0u)
      << "old, unmutated weak pairs are not rescanned by a minor GC";
}

// --- Weak pairs crossed with guardians -------------------------------
//
// The paper's two retention mechanisms interact in one collection: the
// guardian salvage pass runs *before* the weak-pointer pass, so a
// guarded object that dies is copied by salvage and every weak
// reference to it is forwarded, not broken. Only when nothing (guardian
// included) preserves the object does the weak car break.

TEST(WeakPairTest, GuardedObjectResurrectionKeepsWeakCarIntact) {
  Heap H(testConfig());
  Guardian G(H);
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(11), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
    G.protect(X.get());
  }
  H.collectMinor();
  // X was inaccessible but guarded: resurrection wins over weakness.
  ASSERT_TRUE(pairCar(W.get()).isPair());
  EXPECT_EQ(H.lastStats().WeakPointersBroken, 0u);
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair());
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 11);
  EXPECT_EQ(Y.get(), pairCar(W.get()))
      << "the weak car and the retrieved object are the same (eq?)";
  // Final release: retrieved, un-reguarded, unreferenced.
  Y = Value::nil();
  H.collectFull();
  EXPECT_TRUE(pairCar(W.get()).isFalse());
  H.verifyHeap();
}

TEST(WeakPairTest, AgentDeliveryDiscardsObjectAndBreaksWeakCar) {
  Heap H(testConfig());
  Guardian G(H);
  Root W(H, Value::nil());
  Root Agent(H, H.cons(Value::fixnum(99), Value::nil()));
  {
    Root X(H, H.cons(Value::fixnum(12), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
    G.protectWithAgent(X.get(), Agent.get());
  }
  H.collectMinor();
  // Section 5: the agent, not the object, is preserved. X itself is
  // discarded, so the weak reference breaks in the same collection the
  // agent is delivered.
  EXPECT_TRUE(pairCar(W.get()).isFalse());
  EXPECT_GE(H.lastStats().WeakPointersBroken, 1u);
  Root D(H, G.retrieve());
  EXPECT_EQ(D.get(), Agent.get());
  EXPECT_TRUE(G.retrieve().isFalse());
  H.verifyHeap();
}

TEST(WeakPairTest, ReGuardingAcrossRoundsKeepsWeakCarAlive) {
  Heap H(testConfig());
  Guardian G(H);
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(13), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
    G.protect(X.get());
  }
  for (int Round = 0; Round != 4; ++Round) {
    H.collectFull();
    ASSERT_TRUE(pairCar(W.get()).isPair())
        << "round " << Round << ": resurrection must precede weak scan";
    Root Y(H, G.retrieve());
    ASSERT_TRUE(Y.get().isPair()) << "round " << Round;
    EXPECT_EQ(pairCar(Y.get()).asFixnum(), 13);
    G.protect(Y.get()); // Re-guard: the next round resurrects again.
  }
  H.collectFull();
  G.drain([](Value V) { ASSERT_TRUE(V.isPair()); }); // No re-guard.
  H.collectFull();
  EXPECT_TRUE(pairCar(W.get()).isFalse());
  H.verifyHeap();
}

TEST(WeakPairTest, GuardedOldObjectResurrectedByOldCollection) {
  Heap H(testConfig());
  Guardian G(H);
  Root W(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(14), Value::nil()));
    W = H.weakCons(X.get(), Value::nil());
    H.collect(1); // Park both X and the weak pair in an old generation.
    EXPECT_GE(H.generationOf(X.get()), 1u);
    G.protect(X.get());
  }
  const unsigned OldGen = H.generationOf(pairCar(W.get()));
  H.collectMinor();
  ASSERT_TRUE(pairCar(W.get()).isPair())
      << "a minor GC does not touch the old guarded object";
  H.collect(OldGen); // Now X's generation is collected: resurrection.
  ASSERT_TRUE(pairCar(W.get()).isPair());
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair());
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 14);
  EXPECT_EQ(Y.get(), pairCar(W.get()));
  H.verifyHeap();
}

TEST(WeakPairTest, WeakBoxHelpers) {
  Heap H(testConfig());
  Root Box(H, Value::nil());
  {
    Root X(H, H.cons(Value::fixnum(1), Value::nil()));
    Box = makeWeakBox(H, X.get());
    EXPECT_FALSE(weakBoxBroken(Box.get()));
    EXPECT_EQ(weakBoxValue(Box.get()), X.get());
  }
  H.collectMinor();
  EXPECT_TRUE(weakBoxBroken(Box.get()));
  EXPECT_TRUE(weakBoxValue(Box.get()).isFalse());
}

} // namespace

//===- tests/gc/guardian_test.cpp - Guardian semantics (Section 3) -------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Every interactive transcript of Section 3 appears here as a test, plus
// the semantic guarantees the paper states in prose.
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

// > (define G (make-guardian))
// > (define x (cons 'a 'b))
// > (G x)
// > (G)        => #f            ; x is still accessible
// > (set! x #f)
// > (G)        => (a . b)       ; after collection
// > (G)        => #f
TEST(GuardianTest, BasicTranscript) {
  Heap H(testConfig());
  Guardian G(H);
  Root A(H, H.intern("a")), B(H, H.intern("b"));
  {
    Root X(H, H.cons(A.get(), B.get()));
    G.protect(X.get());
    H.collectMinor();
    EXPECT_TRUE(G.retrieve().isFalse())
        << "still accessible: nothing to retrieve";
  } // (set! x #f)
  // The pair was promoted to generation 1 by the first collection, so a
  // collection of generation 1 is what proves it inaccessible.
  H.collect(1);
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair()) << "dropped pair must be retrievable";
  EXPECT_EQ(pairCar(Y.get()), A.get());
  EXPECT_EQ(pairCdr(Y.get()), B.get());
  EXPECT_TRUE(G.retrieve().isFalse());
  H.verifyHeap();
}

TEST(GuardianTest, NotRetrievableBeforeCollection) {
  Heap H(testConfig());
  Guardian G(H);
  { Root X(H, H.cons(Value::fixnum(1), Value::nil())); G.protect(X.get()); }
  // Inaccessible but not yet *proven* inaccessible: "this proof may not
  // be made in some cases until long after the object actually becomes
  // inaccessible".
  EXPECT_TRUE(G.retrieve().isFalse());
  H.collectMinor();
  EXPECT_TRUE(G.retrieve().isPair());
}

// > (G x) (G x) ... retrievable more than once.
TEST(GuardianTest, DoubleRegistrationTranscript) {
  Heap H(testConfig());
  Guardian G(H);
  {
    Root X(H, H.cons(H.intern("a"), H.intern("b")));
    G.protect(X.get());
    G.protect(X.get());
  }
  H.collectMinor();
  Root First(H, G.retrieve());
  Root Second(H, G.retrieve());
  ASSERT_TRUE(First.get().isPair());
  ASSERT_TRUE(Second.get().isPair());
  EXPECT_EQ(First.get(), Second.get())
      << "both retrievals yield the same (eq) pair";
  EXPECT_TRUE(G.retrieve().isFalse());
}

// Registration with two guardians: retrievable from each.
TEST(GuardianTest, TwoGuardiansTranscript) {
  Heap H(testConfig());
  Guardian G(H), G2(H);
  {
    Root X(H, H.cons(H.intern("a"), H.intern("b")));
    G.protect(X.get());
    G2.protect(X.get());
  }
  H.collectMinor();
  Root FromG(H, G.retrieve());
  Root FromG2(H, G2.retrieve());
  ASSERT_TRUE(FromG.get().isPair());
  ASSERT_TRUE(FromG2.get().isPair());
  EXPECT_EQ(FromG.get(), FromG2.get());
}

// > (G H) (H c) (set! x #f) (set! H #f) ... ((G)) => (a . b)
// One guardian registered with another: dropping the inner guardian
// delivers it (object intact) through the outer one.
TEST(GuardianTest, GuardianRegisteredWithGuardianTranscript) {
  Heap Hp(testConfig());
  Guardian G(Hp);
  Root Pair(Hp, Hp.cons(Hp.intern("a"), Hp.intern("b")));
  {
    // Inner guardian H guards the pair; G guards H itself. We register
    // H's tconc, which is what "registering a guardian" means at the
    // representation level.
    Guardian Inner(Hp);
    G.protect(Inner.tconcValue());
    Inner.protect(Pair.get());
    Pair = Value::nil(); // (set! x #f)
    Hp.collectMinor();   // Pair becomes inaccessible; Inner catches it.
    // Inner still alive here; its pending list now holds the pair.
  } // (set! H #f): Inner's tconc becomes unreachable from the mutator.
  Hp.collect(1); // The tconc was promoted to generation 1.
  Root InnerTconc(Hp, G.retrieve());
  ASSERT_TRUE(InnerTconc.get().isPair()) << "dropped guardian retrieved";
  Root Recovered(Hp, Hp.guardianRetrieve(InnerTconc.get()));
  ASSERT_TRUE(Recovered.get().isPair()) << "((G)) yields the pair";
  EXPECT_EQ(Hp.symbolName(pairCar(Recovered.get())), "a");
  EXPECT_EQ(Hp.symbolName(pairCdr(Recovered.get())), "b");
  Hp.verifyHeap();
}

TEST(GuardianTest, RetrievedObjectHasNoSpecialStatus) {
  Heap H(testConfig());
  Guardian G(H);
  { Root X(H, H.cons(Value::fixnum(5), Value::nil())); G.protect(X.get()); }
  H.collectMinor();
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair());
  // "Can it be let loose into the system again?" -- yes: store it, let
  // it live across further collections.
  Root Holder(H, H.cons(Y.get(), Value::nil()));
  Y = Value::nil();
  H.collectFull();
  EXPECT_EQ(pairCar(pairCar(Holder.get())).asFixnum(), 5);
  H.verifyHeap();
}

TEST(GuardianTest, ReRegistrationAfterRetrieval) {
  Heap H(testConfig());
  Guardian G(H);
  { Root X(H, H.cons(Value::fixnum(9), Value::nil())); G.protect(X.get()); }
  H.collectMinor();
  {
    Root Y(H, G.retrieve());
    ASSERT_TRUE(Y.get().isPair());
    G.protect(Y.get()); // "Can objects being finalized be re-registered?"
  }
  H.collect(1); // The salvaged object lives in generation 1 now.
  Root Z(H, G.retrieve());
  ASSERT_TRUE(Z.get().isPair()) << "re-registered object comes back again";
  EXPECT_EQ(pairCar(Z.get()).asFixnum(), 9);
}

TEST(GuardianTest, DroppingGuardianCancelsFinalization) {
  Heap H(testConfig());
  size_t LiveBefore;
  {
    Guardian G(H);
    // Keep the objects alive across the first collection so their
    // protected entries are still pending when the guardian dies.
    RootVector Keep(H);
    for (int I = 0; I != 100; ++I) {
      Keep.push_back(H.cons(Value::fixnum(I), Value::nil()));
      G.protect(Keep.back());
    }
    H.collectMinor();
    EXPECT_EQ(H.protectedEntriesInGeneration(1), 100u);
    LiveBefore = H.liveBytes();
  } // "Finalization of a group of objects can be canceled by simply
    // dropping all references to the guardian." Objects die with it.
  H.collect(1); // Objects and entries were promoted to generation 1.
  EXPECT_EQ(H.lastStats().GuardianEntriesDropped, 100u);
  EXPECT_LT(H.liveBytes(), LiveBefore);
  H.verifyHeap();
}

TEST(GuardianTest, FifoOrderWithinACollection) {
  // The collector appends to each tconc's tail in protected-list order,
  // batched per tconc within a fixpoint round; the mutator retrieves
  // from the front. Every case registers fixnum-tagged pairs and checks
  // that each guardian hands them back in registration order.
  struct Case {
    const char *Name;
    unsigned Guardians;
    /// Guardian 0's header is promoted to an older generation, still
    /// holding undrained elements, before the main registrations.
    bool OldHeader;
    /// The collection runs with a request scope open and delivers
    /// in-scope Section 5 agents of ordinary objects; in-scope
    /// registrations are then delivered by the scope's close.
    bool ScopeOpen;
  };
  const Case Cases[] = {
      {"one guardian", 1, false, false},
      {"three interleaved guardians", 3, false, false},
      {"promoted header with undrained elements", 2, true, false},
      {"request scope open", 3, false, true},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Heap H(testConfig());
    std::vector<std::unique_ptr<Guardian>> Gs;
    std::vector<std::vector<int>> Expected(C.Guardians);
    for (unsigned I = 0; I != C.Guardians; ++I)
      Gs.push_back(std::make_unique<Guardian>(H));
    auto Register = [&](int Tag, unsigned Which) {
      Root X(H, H.cons(Value::fixnum(Tag), Value::nil()));
      Gs[Which]->protect(X.get());
      Expected[Which].push_back(Tag);
    };
    auto RetrieveAll = [&] {
      for (unsigned I = 0; I != C.Guardians; ++I) {
        SCOPED_TRACE(I);
        for (int Tag : Expected[I]) {
          Root Y(H, Gs[I]->retrieve());
          ASSERT_TRUE(Y.get().isPair());
          EXPECT_EQ(pairCar(Y.get()).asFixnum(), Tag);
        }
        EXPECT_TRUE(Gs[I]->retrieve().isFalse());
        Expected[I].clear();
      }
    };

    if (C.OldHeader) {
      for (int Tag = 100; Tag != 103; ++Tag)
        Register(Tag, 0);
      H.collectMinor(); // Delivered, left in the queue.
      H.collect(1);
      ASSERT_EQ(H.generationOf(Gs[0]->tconcValue()), 2u);
    }
    for (int Tag = 0; Tag != 12; ++Tag)
      Register(Tag, static_cast<unsigned>(Tag) % C.Guardians);
    if (C.ScopeOpen) {
      // The tconc cells that receive these agents live outside the
      // scope, so each one must be recorded as a scope escape.
      RootVector Objects(H);
      for (int I = 0; I != 6; ++I)
        Objects.push_back(H.cons(Value::nil(), Value::nil()));
      H.openScope();
      for (int Tag = 12; Tag != 18; ++Tag) {
        const unsigned Which = static_cast<unsigned>(Tag) % C.Guardians;
        Root Agent(H, H.cons(Value::fixnum(Tag), Value::nil()));
        Gs[Which]->protectWithAgent(Objects[Tag - 12], Agent.get());
        Expected[Which].push_back(Tag);
      }
    }
    H.collectMinor();
    H.verifyHeap();
    RetrieveAll();
    if (C.ScopeOpen) {
      for (int Tag = 20; Tag != 29; ++Tag)
        Register(Tag, static_cast<unsigned>(Tag) % C.Guardians);
      H.closeScope();
      H.verifyHeap();
      RetrieveAll();
    }
    H.verifyHeap();
  }
}

TEST(GuardianTest, SharedStructurePreservedInEntirety) {
  Heap H(testConfig());
  Guardian G(H);
  {
    // A cycle: A -> B -> A, both registered.
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), A.get()));
    H.setCdr(A.get(), B.get());
    G.protect(A.get());
    G.protect(B.get());
  }
  H.collectMinor();
  Root X(H, G.retrieve());
  Root Y(H, G.retrieve());
  ASSERT_TRUE(X.get().isPair());
  ASSERT_TRUE(Y.get().isPair());
  // "A shared or cyclic structure ... is preserved in its entirety and
  // each piece registered ... is placed in the inaccessible set."
  EXPECT_EQ(pairCdr(X.get()), Y.get());
  EXPECT_EQ(pairCdr(Y.get()), X.get());
  EXPECT_EQ(pairCar(X.get()).asFixnum(), 1);
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 2);
  EXPECT_TRUE(G.retrieve().isFalse());
  H.verifyHeap();
}

TEST(GuardianTest, ChainOfDeadObjectsSalvagedTogether) {
  Heap H(testConfig());
  Guardian G(H);
  {
    // Head -> Mid -> Tail; only Head registered. Salvaging Head must
    // keep the whole chain intact.
    Root Tail(H, H.cons(Value::fixnum(3), Value::nil()));
    Root Mid(H, H.cons(Value::fixnum(2), Tail.get()));
    Root Head(H, H.cons(Value::fixnum(1), Mid.get()));
    G.protect(Head.get());
  }
  H.collectMinor();
  Root X(H, G.retrieve());
  ASSERT_TRUE(X.get().isPair());
  EXPECT_EQ(pairCar(pairCdr(X.get())).asFixnum(), 2);
  EXPECT_EQ(pairCar(pairCdr(pairCdr(X.get()))).asFixnum(), 3);
  H.verifyHeap();
}

TEST(GuardianTest, ImmediateValuesStayRegisteredForever) {
  Heap H(testConfig());
  Guardian G(H);
  G.protect(Value::fixnum(42));
  G.protect(Value::trueV());
  for (int I = 0; I != 3; ++I) {
    H.collectFull();
    EXPECT_TRUE(G.retrieve().isFalse())
        << "immediates are never inaccessible";
  }
  EXPECT_EQ(H.protectedEntriesInGeneration(H.oldestGeneration()), 2u);
}

TEST(GuardianTest, GuardianEntriesAgeWithTheObject) {
  Heap H(testConfig());
  Guardian G(H);
  Root X(H, H.cons(Value::fixnum(1), Value::nil()));
  G.protect(X.get());
  EXPECT_EQ(H.protectedEntriesInGeneration(0), 1u);
  H.collectMinor();
  EXPECT_EQ(H.protectedEntriesInGeneration(0), 0u);
  EXPECT_EQ(H.protectedEntriesInGeneration(1), 1u)
      << "entry moves to the protected list of the target generation";
  // A minor collection must not even look at it (generation-friendly).
  H.collectMinor();
  EXPECT_EQ(H.lastStats().ProtectedEntriesVisited, 0u);
  EXPECT_EQ(H.protectedEntriesInGeneration(1), 1u);
}

TEST(GuardianTest, MinorCollectionIgnoresOldRegistrations) {
  Heap H(testConfig());
  Guardian G(H);
  RootVector Keep(H);
  for (int I = 0; I != 1000; ++I) {
    Keep.push_back(H.cons(Value::fixnum(I), Value::nil()));
    G.protect(Keep.back());
  }
  H.collect(2); // Entries park in generation 3.
  ASSERT_EQ(H.protectedEntriesInGeneration(3), 1000u);
  H.collectMinor();
  EXPECT_EQ(H.lastStats().ProtectedEntriesVisited, 0u)
      << "no overhead for older objects not subject to collection";
}

TEST(GuardianTest, DeadObjectRetrievedAfterOldGenerationCollection) {
  Heap H(testConfig());
  Guardian G(H);
  {
    Root X(H, H.cons(Value::fixnum(77), Value::nil()));
    G.protect(X.get());
    H.collect(1); // X and its entry promote to generation 2.
  }
  H.collectMinor();
  EXPECT_TRUE(G.retrieve().isFalse())
      << "object parked in generation 2 is not collected by a minor GC";
  H.collect(2);
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair());
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 77);
  H.verifyHeap();
}

TEST(GuardianTest, ManyObjectsAcrossManyCollections) {
  Heap H(testConfig());
  Guardian G(H);
  constexpr int N = 2000;
  {
    RootVector Keep(H);
    for (int I = 0; I != N; ++I) {
      Keep.push_back(H.cons(Value::fixnum(I), Value::nil()));
      G.protect(Keep.back());
    }
    H.collectMinor(); // All survive, entries promote.
  }
  // Now dead; a minor GC won't see them (they are in generation 1).
  H.collectMinor();
  EXPECT_TRUE(G.retrieve().isFalse());
  H.collect(1);
  int Count = 0;
  long Sum = 0;
  while (true) {
    Root Y(H, G.retrieve());
    if (Y.get().isFalse())
      break;
    ++Count;
    Sum += pairCar(Y.get()).asFixnum();
  }
  EXPECT_EQ(Count, N);
  EXPECT_EQ(Sum, static_cast<long>(N) * (N - 1) / 2);
  H.verifyHeap();
}

TEST(GuardianTest, DrainHelper) {
  Heap H(testConfig());
  Guardian G(H);
  for (int I = 0; I != 5; ++I) {
    Root X(H, H.cons(Value::fixnum(I), Value::nil()));
    G.protect(X.get());
  }
  H.collectMinor();
  int Seen = 0;
  size_t N = G.drain([&](Value V) {
    EXPECT_TRUE(V.isPair());
    ++Seen;
  });
  EXPECT_EQ(N, 5u);
  EXPECT_EQ(Seen, 5);
  EXPECT_FALSE(G.hasPending());
}

TEST(GuardianTest, CleanupMayAllocateAndCollect) {
  Heap H(testConfig());
  Guardian G(H);
  for (int I = 0; I != 10; ++I) {
    Root X(H, H.cons(Value::fixnum(I), Value::nil()));
    G.protect(X.get());
  }
  H.collectMinor();
  // Unlike collector-invoked finalizers, guardian clean-up runs as
  // ordinary mutator code: it may allocate and even collect.
  size_t N = G.drain([&](Value V) {
    Root RV(H, V);
    Root Copy(H, H.cons(pairCar(RV.get()), Value::nil()));
    H.collectMinor(); // A collection inside clean-up is fine.
    EXPECT_TRUE(Copy.get().isPair());
  });
  EXPECT_EQ(N, 10u);
  H.verifyHeap();
}

TEST(GuardianTest, TryRetrieveDistinguishesEmptiness) {
  Heap H(testConfig());
  Guardian G(H);
  EXPECT_FALSE(G.tryRetrieve().has_value());
  { Root X(H, H.cons(Value::falseV(), Value::falseV())); G.protect(X.get()); }
  H.collectMinor();
  auto V = G.tryRetrieve();
  ASSERT_TRUE(V.has_value());
  EXPECT_TRUE(V->isPair());
  EXPECT_FALSE(G.tryRetrieve().has_value());
}

} // namespace

//===- tests/gc/donation_test.cpp - Segment donation + shared space ------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-level halves of zero-copy inter-shard transfer (DESIGN.md
/// §13): copy-out donation and adoption between two heaps bound to one
/// private exchange domain, segment-ownership accounting across drops
/// and full collections, symbol fixups and their remembered-set edges,
/// weak-pair space preservation, and the freeze-and-publish protocol of
/// the shared immutable space (including the store-into-shared abort).
///
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/telemetry/Census.h"
#include "heap/SharedImmutableSpace.h"
#include "object/Layout.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace gengc;

namespace {

HeapConfig exchangeConfig(SharedImmutableSpace &X) {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  C.Exchange = &X;
  return C;
}

/// A list (0 1 2 ... N-1) built without donation-relevant kinds.
Value makeCountList(Heap &H, int N) {
  Root L(H, Value::nil());
  for (int I = N - 1; I >= 0; --I)
    L = H.cons(Value::fixnum(I), L);
  return L.get();
}

//===----------------------------------------------------------------------===//
// Copy-out donation and adoption.
//===----------------------------------------------------------------------===//

TEST(DonationTest, GraphCrossesHeapsWithoutReceiverCopies) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 1000));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  EXPECT_GT(G.segmentCount(), 0u);
  EXPECT_GT(G.Bytes, 0u);
  EXPECT_EQ(Sender.graphsDonated(), 1u);
  EXPECT_EQ(X.donatedSegmentsInUse(), G.segmentCount());

  // The sender's graph is untouched (side-map copy-out, no forwarding).
  {
    Value P = Payload.get();
    for (int I = 0; I != 1000; ++I) {
      ASSERT_TRUE(P.isPair());
      EXPECT_EQ(pairCar(P).asFixnum(), I);
      P = pairCdr(P);
    }
    EXPECT_TRUE(P.isNil());
  }

  const size_t SegmentsBefore = Receiver.segmentsInUse();
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));
  // Zero-copy receive: adoption allocated nothing in the receiver's
  // private arena (no fixups in this graph, so not even symbols).
  EXPECT_EQ(Receiver.segmentsInUse(), SegmentsBefore);
  EXPECT_TRUE(G.empty());
  EXPECT_EQ(Receiver.graphsAdopted(), 1u);

  Value P = Adopted.get();
  for (int I = 0; I != 1000; ++I) {
    ASSERT_TRUE(P.isPair());
    EXPECT_EQ(Receiver.generationOf(P), Receiver.oldestGeneration());
    EXPECT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  EXPECT_TRUE(P.isNil());
  Receiver.verifyHeap();
}

TEST(DonationTest, SharingCyclesAndAllKindsSurviveDonation) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  // A record holding: a string referenced twice (sharing), a vector, a
  // box, a bytevector, a flonum, and a cyclic pair.
  Root Str(Sender, Sender.makeString("donated"));
  Root Vec(Sender, Sender.makeVector(3, Value::fixnum(0)));
  Sender.vectorSet(Vec, 0, Str);
  Sender.vectorSet(Vec, 1, Str);
  Sender.vectorSet(Vec, 2, Sender.makeFlonum(2.5));
  Root BV(Sender, Sender.makeBytevector(4));
  std::memcpy(bytevectorData(BV.get()), "\x01\x02\x03\x04", 4);
  Root Cycle(Sender, Sender.cons(Value::fixnum(7), Value::nil()));
  Sender.setCdr(Cycle, Cycle); // Self-cycle.
  Root Rec(Sender, Sender.makeRecord(Value::fixnum(42), 5, Value::nil()));
  Sender.recordSet(Rec, 1, Vec);
  Sender.recordSet(Rec, 2, Sender.makeBox(Value::fixnum(77)));
  Sender.recordSet(Rec, 3, BV);
  Sender.recordSet(Rec, 4, Cycle);

  DonatedGraph G = Sender.donateGraph(Rec.get());
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));

  ASSERT_TRUE(isRecord(Out.get()));
  Value OVec = objectField(Out.get(), 1);
  ASSERT_TRUE(isVector(OVec));
  // Sharing preserved: both slots are the same object.
  EXPECT_EQ(objectField(OVec, 0).bits(), objectField(OVec, 1).bits());
  ASSERT_TRUE(isString(objectField(OVec, 0)));
  EXPECT_EQ(std::string(stringData(objectField(OVec, 0)), 7), "donated");
  EXPECT_EQ(flonumValue(objectField(OVec, 2)), 2.5);
  ASSERT_TRUE(isBox(objectField(Out.get(), 2)));
  EXPECT_EQ(objectField(objectField(Out.get(), 2), 0).asFixnum(), 77);
  Value OBV = objectField(Out.get(), 3);
  ASSERT_TRUE(isBytevector(OBV));
  EXPECT_EQ(std::memcmp(bytevectorData(OBV), "\x01\x02\x03\x04", 4), 0);
  Value OCycle = objectField(Out.get(), 4);
  ASSERT_TRUE(OCycle.isPair());
  EXPECT_EQ(pairCar(OCycle).asFixnum(), 7);
  EXPECT_EQ(pairCdr(OCycle).bits(), OCycle.bits()); // Cycle preserved.
  Receiver.verifyHeap();
}

TEST(DonationTest, DroppedGraphReturnsItsSegments) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  {
    Root Payload(Sender, makeCountList(Sender, 500));
    DonatedGraph G = Sender.donateGraph(Payload.get());
    EXPECT_GT(X.donatedSegmentsInUse(), 0u);
    // G dropped without adoption: a lost message leaks nothing.
  }
  EXPECT_EQ(X.donatedSegmentsInUse(), 0u);
}

TEST(DonationTest, LeakFaultInjectionLeaksDroppedSegments) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  HeapConfig C = exchangeConfig(X);
  C.InjectedFault = GcFaultInjection::LeakDonatedSegment;
  Heap Sender(C);
  size_t Leaked;
  {
    Root Payload(Sender, makeCountList(Sender, 500));
    DonatedGraph G = Sender.donateGraph(Payload.get());
    Leaked = G.segmentCount();
    EXPECT_GT(Leaked, 0u);
  }
  // The fault makes the drop leak — exactly what the fuzzer's exchange
  // ownership audit must catch.
  EXPECT_EQ(X.donatedSegmentsInUse(), Leaked);
}

TEST(DonationTest, DegenerateRootsCarryNoSegments) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  DonatedGraph GImm = Sender.donateGraph(Value::fixnum(1234));
  EXPECT_TRUE(GImm.empty());
  EXPECT_EQ(Receiver.adoptDonatedGraph(GImm).asFixnum(), 1234);

  Root Sym(Sender, Sender.intern("transfer-by-name"));
  DonatedGraph GSym = Sender.donateGraph(Sym.get());
  EXPECT_TRUE(GSym.empty());
  EXPECT_TRUE(GSym.RootIsSymbol);
  Root Out(Receiver, Receiver.adoptDonatedGraph(GSym));
  // eq? to the receiver's own interning of the same name.
  EXPECT_EQ(Out.get().bits(), Receiver.intern("transfer-by-name").bits());
}

TEST(DonationTest, SymbolFixupsReinternAndRememberContainers) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  // Receiver pre-interns one of the names so adoption hits an existing
  // symbol for it and interns the other fresh.
  Root Pre(Receiver, Receiver.intern("preexisting"));

  Root Msg(Sender, Sender.cons(Sender.intern("preexisting"),
                               Value::nil()));
  Msg = Sender.cons(Sender.intern("fresh-name"), Msg);

  DonatedGraph G = Sender.donateGraph(Msg.get());
  EXPECT_EQ(G.Fixups.size(), 2u);
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));

  EXPECT_EQ(pairCar(Out.get()).bits(), Receiver.intern("fresh-name").bits());
  EXPECT_EQ(pairCar(pairCdr(Out.get())).bits(), Pre.get().bits());
  // The adopted containers sit in the oldest generation while the
  // symbols are young: the remembered set must cover the edges, which
  // verifyHeap checks, and a full collection must keep them intact.
  Receiver.verifyHeap();
  Receiver.collectFull();
  EXPECT_EQ(pairCar(Out.get()).bits(), Receiver.intern("fresh-name").bits());
  Receiver.verifyHeap();
}

TEST(DonationTest, WeakPairsStayWeakAfterAdoption) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  // (weak-cons target (strong-ref target)): the weak car's target is
  // also strongly held inside the message, so it survives donation and
  // the weak car arrives intact.
  Root Target(Sender, Sender.cons(Value::fixnum(5), Value::nil()));
  Root WP(Sender, Sender.weakCons(Target, Target));

  DonatedGraph G = Sender.donateGraph(WP.get());
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));
  ASSERT_TRUE(Receiver.isWeakPair(Out.get()));
  EXPECT_EQ(pairCar(Out.get()).bits(), pairCdr(Out.get()).bits());

  // Sever the strong edge; the adopted weak pair must break at the
  // receiver's next full collection — weakness survived the transfer.
  Receiver.setCdr(Out, Value::nil());
  Receiver.collectFull();
  EXPECT_TRUE(pairCar(Out.get()).isFalse());
  Receiver.verifyHeap();
}

TEST(DonationTest, FullCollectionEvacuatesAdoptedRuns) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 1000));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  const size_t Donated = G.segmentCount();
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));
  EXPECT_EQ(X.donatedSegmentsInUse(), Donated);

  // A minor collection leaves adopted (oldest-generation) runs alone.
  Receiver.collectMinor();
  EXPECT_EQ(X.donatedSegmentsInUse(), Donated);
  EXPECT_EQ(Receiver.generationOf(Adopted.get()),
            Receiver.oldestGeneration());

  // A full collection evacuates the survivors into the private arena
  // and returns every donated segment to the exchange arena.
  Receiver.collectFull();
  EXPECT_EQ(X.donatedSegmentsInUse(), 0u);
  Value P = Adopted.get();
  for (int I = 0; I != 1000; ++I) {
    ASSERT_TRUE(P.isPair());
    EXPECT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  Receiver.verifyHeap();

  // Unreferenced adopted memory dies with that collection too: donate
  // and adopt without keeping a root, then fully collect.
  {
    Root Payload2(Sender, makeCountList(Sender, 200));
    DonatedGraph G2 = Sender.donateGraph(Payload2.get());
    (void)Receiver.adoptDonatedGraph(G2); // Deliberately unrooted.
  }
  EXPECT_GT(X.donatedSegmentsInUse(), 0u);
  Receiver.collectFull();
  EXPECT_EQ(X.donatedSegmentsInUse(), 0u);
}

TEST(DonationTest, CensusCountsAdoptedRunsInOldestGeneration) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 500));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));

  HeapCensus C = Receiver.census();
  const unsigned Oldest = Receiver.oldestGeneration();
  size_t OldestPairs =
      C.Cells[Oldest][static_cast<unsigned>(SpaceKind::Pair)].ObjectCount;
  EXPECT_GE(OldestPairs, 500u);
}

//===----------------------------------------------------------------------===//
// Shared immutable space.
//===----------------------------------------------------------------------===//

TEST(SharedImmutableSpaceTest, FreezePublishesGraphReferencedByAllHeaps) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap A(exchangeConfig(X));
  Heap B(exchangeConfig(X));

  Root Src(A, A.makeVector(3, Value::fixnum(0)));
  A.vectorSet(Src, 0, A.makeString("config-key"));
  A.vectorSet(Src, 1, A.intern("option"));
  A.vectorSet(Src, 2, A.cons(Value::fixnum(1), Value::fixnum(2)));

  Value Frozen = X.freeze(A, Src.get());
  EXPECT_TRUE(A.isShared(Frozen));
  EXPECT_TRUE(B.isShared(Frozen));
  // Freezing is idempotent and identity-preserving on shared values.
  EXPECT_EQ(X.freeze(A, Frozen).bits(), Frozen.bits());

  // Both heaps can hold and read it; the reference needs no adoption,
  // no copies, and never enters a remembered set.
  Root InA(A, A.cons(Frozen, Value::nil()));
  Root InB(B, B.cons(Frozen, Value::nil()));
  A.collectFull();
  B.collectFull();
  Value FA = pairCar(InA.get());
  EXPECT_EQ(FA.bits(), Frozen.bits()); // Shared objects never move.
  EXPECT_EQ(std::string(stringData(objectField(FA, 0)), 10), "config-key");
  EXPECT_EQ(pairCar(objectField(FA, 2)).asFixnum(), 1);
  A.verifyHeap();
  B.verifyHeap();
}

TEST(SharedImmutableSpaceTest, FreezeDeduplicatesStringsAndSymbols) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap A(exchangeConfig(X));
  Heap B(exchangeConfig(X));

  Root S1(A, A.makeString("dedup"));
  Root S2(B, B.makeString("dedup"));
  EXPECT_EQ(X.freeze(A, S1.get()).bits(), X.freeze(B, S2.get()).bits());

  Root Y1(A, A.intern("shared-sym"));
  Value Shared1 = X.freeze(A, Y1.get());
  EXPECT_EQ(Shared1.bits(), X.internShared("shared-sym").bits());
}

TEST(SharedImmutableSpaceTest, DonationPassesSharedReferencesThrough) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Str(Sender, Sender.makeString("frozen-constant"));
  Value Frozen = X.freeze(Sender, Str.get());
  const size_t SharedSegs = X.sharedSegmentsInUse();

  Root Msg(Sender, Sender.cons(Frozen, Value::nil()));
  DonatedGraph G = Sender.donateGraph(Msg.get());
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));
  // The shared reference crossed by identity: no new shared segments,
  // no copy, same bits.
  EXPECT_EQ(pairCar(Out.get()).bits(), Frozen.bits());
  EXPECT_EQ(X.sharedSegmentsInUse(), SharedSegs);
  Receiver.verifyHeap();
}

TEST(SharedImmutableSpaceDeathTest, StoreIntoSharedContainerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap H(exchangeConfig(X));
  Root P(H, H.cons(Value::fixnum(1), Value::fixnum(2)));
  Value Frozen = X.freeze(H, P.get());
  // This store is the abort under test. rootcheck:allow(shared-store)
  ASSERT_DEATH(H.setCar(Frozen, Value::fixnum(3)),
               "store into the shared immutable space");
}

} // namespace

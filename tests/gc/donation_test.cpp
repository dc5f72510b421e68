//===- tests/gc/donation_test.cpp - Segment donation ---------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-level halves of zero-copy inter-shard transfer (DESIGN.md
/// §13): copy-out donation and adoption between two heaps bound to one
/// private exchange arena, segment-ownership accounting across drops
/// and full collections, symbol fixups and their remembered-set or
/// escape-set edges (also with a receiver that collects at every
/// safepoint), weak-pair space preservation, and onward donation of an
/// adopted graph.
///
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/telemetry/Census.h"
#include "heap/DonatedGraph.h"
#include "object/Layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace gengc;

namespace {

HeapConfig exchangeConfig(Arena &X) {
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
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 1000));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  EXPECT_GT(G.segmentCount(), 0u);
  EXPECT_GT(G.Bytes, 0u);
  EXPECT_EQ(Sender.graphsDonated(), 1u);
  EXPECT_EQ(donatedSegmentsInUse(X), G.segmentCount());

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
  Arena X(16u * 1024 * 1024);
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
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  {
    Root Payload(Sender, makeCountList(Sender, 500));
    DonatedGraph G = Sender.donateGraph(Payload.get());
    EXPECT_GT(donatedSegmentsInUse(X), 0u);
    // G dropped without adoption: a lost message leaks nothing.
  }
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
}

TEST(DonationTest, LeakFaultInjectionLeaksDroppedSegments) {
  Arena X(16u * 1024 * 1024);
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
  EXPECT_EQ(donatedSegmentsInUse(X), Leaked);
}

TEST(DonationTest, DegenerateRootsCarryNoSegments) {
  Arena X(16u * 1024 * 1024);
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
  Arena X(16u * 1024 * 1024);
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
  Arena X(16u * 1024 * 1024);
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
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 1000));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  const size_t Donated = G.segmentCount();
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));
  EXPECT_EQ(donatedSegmentsInUse(X), Donated);

  // A minor collection leaves adopted (oldest-generation) runs alone.
  Receiver.collectMinor();
  EXPECT_EQ(donatedSegmentsInUse(X), Donated);
  EXPECT_EQ(Receiver.generationOf(Adopted.get()),
            Receiver.oldestGeneration());

  // A full collection evacuates the survivors into the private arena
  // and returns every donated segment to the exchange arena.
  Receiver.collectFull();
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
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
  EXPECT_GT(donatedSegmentsInUse(X), 0u);
  Receiver.collectFull();
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
}

TEST(DonationTest, AdoptedGraphIsDonatedOnward) {
  Arena X(16u * 1024 * 1024);
  Heap A(exchangeConfig(X));
  Heap B(exchangeConfig(X));
  Heap C(exchangeConfig(X));

  // (onward 0 1 ... 499): a symbol fixup and a pair chain.
  constexpr int N = 500;
  Root Payload(A, makeCountList(A, N));
  Root Msg(A, A.cons(A.intern("onward"), Payload));
  DonatedGraph GAB = A.donateGraph(Msg.get());
  const size_t ABSegs = GAB.segmentCount();
  EXPECT_EQ(donatedSegmentsInUse(X), ABSegs);
  Root InB(B, B.adoptDonatedGraph(GAB));
  EXPECT_EQ(B.adoptedSegments(), ABSegs);
  EXPECT_EQ(donatedSegmentsInUse(X), ABSegs);

  // Reads \p R as (onward 0 1 ... N-1) on \p H and returns the exchange
  // segments its pairs occupy.
  auto readMessage = [&](Heap &H, const Root &R) {
    std::vector<uint32_t> Segs;
    const Value Sym = H.intern("onward");
    Value L = R.get();
    EXPECT_EQ(pairCar(L).bits(), Sym.bits());
    for (int I = -1; I != N; ++I) {
      if (!L.isPair()) {
        ADD_FAILURE() << "list ends after " << I + 1 << " cells";
        return Segs;
      }
      if (I >= 0) {
        EXPECT_EQ(pairCar(L).asFixnum(), I);
      }
      if (X.containsAddress(L.heapAddress()))
        Segs.push_back(X.segmentIndexOf(L.heapAddress()));
      L = pairCdr(L);
    }
    EXPECT_TRUE(L.isNil());
    return Segs;
  };

  // B's root lives in the exchange arena but belongs to B: donating it
  // onward must copy it into fresh in-flight segments like any other
  // graph, not pass it through.
  DonatedGraph GBC = B.donateGraph(InB.get());
  const size_t BCSegs = GBC.segmentCount();
  EXPECT_GT(BCSegs, 0u);
  EXPECT_EQ(GBC.Fixups.size(), 1u);
  EXPECT_EQ(donatedSegmentsInUse(X), ABSegs + BCSegs);
  Root InC(C, C.adoptDonatedGraph(GBC));
  EXPECT_EQ(C.adoptedSegments(), BCSegs);
  EXPECT_EQ(donatedSegmentsInUse(X), ABSegs + BCSegs);

  const std::vector<uint32_t> BSegs = readMessage(B, InB);
  const std::vector<uint32_t> CSegs = readMessage(C, InC);
  EXPECT_EQ(BSegs.size(), static_cast<size_t>(N) + 1);
  EXPECT_EQ(CSegs.size(), static_cast<size_t>(N) + 1);
  for (uint32_t Seg : CSegs) {
    EXPECT_EQ(std::count(BSegs.begin(), BSegs.end(), Seg), 0)
        << "C's copy shares exchange segment " << Seg << " with B";
    EXPECT_EQ(X.infoAt(Seg).Generation, C.oldestGeneration());
  }
  A.verifyHeap();
  B.verifyHeap();
  C.verifyHeap();

  // B's full collection evacuates its adopted runs and frees them; C's
  // copy does not notice.
  B.collectFull();
  EXPECT_EQ(B.adoptedSegments(), 0u);
  EXPECT_EQ(donatedSegmentsInUse(X), BCSegs);
  EXPECT_TRUE(readMessage(B, InB).empty());
  readMessage(C, InC);
  B.verifyHeap();
  C.verifyHeap();

  C.collectFull();
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
  readMessage(C, InC);
  C.verifyHeap();
}

TEST(DonationTest, StoreIntoAdoptedContainerIsRemembered) {
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Payload(Sender, makeCountList(Sender, 100));
  DonatedGraph G = Sender.donateGraph(Payload.get());
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));

  // An adopted container is oldest-generation data like any other: a
  // store of a young value into it must enter the remembered set, or
  // the next minor collection reclaims the value under it.
  Receiver.setCar(Adopted, Receiver.cons(Value::fixnum(41), Value::nil()));
  Receiver.verifyHeap();
  Receiver.collectMinor();
  Receiver.verifyHeap();
  ASSERT_TRUE(pairCar(Adopted.get()).isPair());
  EXPECT_EQ(pairCar(pairCar(Adopted.get())).asFixnum(), 41);
}

TEST(DonationTest, CensusCountsAdoptedRunsInOldestGeneration) {
  Arena X(16u * 1024 * 1024);
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

TEST(DonationTest, AdoptionSurvivesStressCollections) {
  // Stress collections fire only on a heap that collects automatically:
  // the receiver collects in full at every safepoint, so adoption's
  // phase 1 collects before each of its interns while the graph is
  // still in flight.
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  HeapConfig RC = exchangeConfig(X);
  RC.AutoCollect = true;
  RC.StressGC = true;
  RC.StressInterval = 1;
  Heap Receiver(RC);

  // (stress-0 stress-1 ... stress-11): twelve distinct symbol fixups.
  constexpr int N = 12;
  auto NameOf = [](int I) { return "stress-" + std::to_string(I); };
  Root Msg(Sender, Value::nil());
  for (int I = N - 1; I >= 0; --I)
    Msg = Sender.cons(Sender.intern(NameOf(I)), Msg);
  DonatedGraph G = Sender.donateGraph(Msg.get());
  ASSERT_EQ(G.Fixups.size(), static_cast<size_t>(N));
  const size_t Donated = G.segmentCount();

  const uint64_t CollectionsBefore = Receiver.totals().Collections;
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));
  EXPECT_GE(Receiver.totals().Collections - CollectionsBefore,
            static_cast<uint64_t>(N))
      << "every phase-1 intern is a stress collection";
  EXPECT_EQ(donatedSegmentsInUse(X), Donated);
  EXPECT_EQ(Receiver.adoptedSegments(), Donated);
  Receiver.verifyHeap();

  // Reads Out as (stress-0 ... stress-11) without allocating.
  auto ReadMessage = [&] {
    Value P = Out.get();
    for (int I = 0; I != N; ++I) {
      ASSERT_TRUE(P.isPair());
      EXPECT_EQ(Receiver.symbolName(pairCar(P)), NameOf(I));
      P = pairCdr(P);
    }
    EXPECT_TRUE(P.isNil());
  };
  ReadMessage();

  Receiver.collectFull();
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
  EXPECT_EQ(Receiver.adoptedSegments(), 0u);
  ReadMessage();
  Receiver.verifyHeap();
}

TEST(DonationTest, AdoptIntoOpenScopeRecordsEscape) {
  Arena X(16u * 1024 * 1024);
  Heap Sender(exchangeConfig(X));
  Heap Receiver(exchangeConfig(X));

  Root Msg(Sender, Sender.cons(Sender.intern("scope-fixup"), Value::nil()));
  DonatedGraph G = Sender.donateGraph(Msg.get());
  ASSERT_EQ(G.Fixups.size(), 1u);

  // The fixup's symbol is interned into the receiver's open scope while
  // its container is adopted into the oldest generation: the container
  // is an escape of the scope, not a remembered-set entry.
  Receiver.openScope();
  Root Out(Receiver, Receiver.adoptDonatedGraph(G));
  EXPECT_EQ(Receiver.scopeDepthOf(Out.get()), 0u);
  EXPECT_EQ(Receiver.scopeDepthOf(pairCar(Out.get())), 1u);
  Receiver.verifyHeap();

  // The escape keeps the symbol alive through the close: it graduates
  // into generation 0 and the container reads the graduate.
  Receiver.closeScope();
  Value Sym = pairCar(Out.get());
  EXPECT_EQ(Receiver.scopeDepthOf(Sym), 0u);
  EXPECT_EQ(Receiver.generationOf(Sym), 0u);
  EXPECT_EQ(Receiver.symbolName(Sym), "scope-fixup");
  EXPECT_EQ(Receiver.intern("scope-fixup").bits(), Sym.bits());
  Receiver.verifyHeap();

  Receiver.collectFull();
  EXPECT_EQ(Receiver.symbolName(pairCar(Out.get())), "scope-fixup");
  EXPECT_EQ(donatedSegmentsInUse(X), 0u);
  Receiver.verifyHeap();
}

} // namespace

//===- tests/gc/collector_test.cpp - Collection correctness --------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/Roots.h"

#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

TEST(CollectorTest, RootedPairSurvivesAndMoves) {
  Heap H(testConfig());
  Root P(H, H.cons(Value::fixnum(10), Value::fixnum(20)));
  Value Before = P.get();
  H.collectMinor();
  Value After = P.get();
  EXPECT_NE(Before, After) << "survivor should be copied to generation 1";
  EXPECT_EQ(pairCar(After).asFixnum(), 10);
  EXPECT_EQ(pairCdr(After).asFixnum(), 20);
  EXPECT_EQ(H.generationOf(After), 1u);
  H.verifyHeap();
}

TEST(CollectorTest, GarbageIsReclaimed) {
  Heap H(testConfig());
  for (int I = 0; I != 10000; ++I)
    H.cons(Value::fixnum(I), Value::fixnum(I));
  size_t Before = H.liveBytes();
  H.collectMinor();
  size_t After = H.liveBytes();
  EXPECT_LT(After, Before / 10) << "dead pairs must be reclaimed";
  H.verifyHeap();
}

TEST(CollectorTest, DeepListSurvives) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 5000; ++I)
    L = H.cons(Value::fixnum(I), L);
  H.collectMinor();
  Value P = L.get();
  for (int I = 4999; I >= 0; --I) {
    ASSERT_TRUE(P.isPair());
    ASSERT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  EXPECT_TRUE(P.isNil());
  H.verifyHeap();
}

TEST(CollectorTest, SharedStructurePreservesIdentity) {
  Heap H(testConfig());
  Root Shared(H, H.cons(Value::fixnum(1), Value::nil()));
  Root A(H, H.cons(Shared.get(), Value::nil()));
  Root B(H, H.cons(Shared.get(), Value::nil()));
  H.collectMinor();
  EXPECT_EQ(pairCar(A.get()), pairCar(B.get()))
      << "sharing must be preserved (copied exactly once)";
  EXPECT_EQ(pairCar(A.get()), Shared.get());
  H.verifyHeap();
}

TEST(CollectorTest, CyclicStructureSurvives) {
  Heap H(testConfig());
  Root A(H, H.cons(Value::fixnum(1), Value::nil()));
  Root B(H, H.cons(Value::fixnum(2), A.get()));
  H.setCdr(A.get(), B.get()); // A -> B -> A cycle.
  H.collectMinor();
  EXPECT_EQ(pairCdr(pairCdr(A.get())), A.get()) << "cycle must close";
  EXPECT_EQ(pairCar(pairCdr(A.get())).asFixnum(), 2);
  H.verifyHeap();
}

TEST(CollectorTest, PromotionThroughGenerations) {
  Heap H(testConfig());
  Root P(H, H.cons(Value::fixnum(7), Value::nil()));
  EXPECT_EQ(H.generationOf(P.get()), 0u);
  H.collect(0);
  EXPECT_EQ(H.generationOf(P.get()), 1u);
  H.collect(1);
  EXPECT_EQ(H.generationOf(P.get()), 2u);
  H.collect(2);
  EXPECT_EQ(H.generationOf(P.get()), 3u);
  // Oldest generation: survivors of a collection of generation n stay
  // in generation n.
  H.collect(3);
  EXPECT_EQ(H.generationOf(P.get()), 3u);
  EXPECT_EQ(pairCar(P.get()).asFixnum(), 7);
  // Survivors of a collection of generation g go to g+1, not to their
  // own generation + 1.
  Root Fresh(H, H.cons(Value::fixnum(4), Value::nil()));
  H.collect(2);
  EXPECT_EQ(H.generationOf(Fresh.get()), 3u);
  H.verifyHeap();
}

TEST(CollectorTest, MinorCollectionDoesNotTouchOldObjects) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::fixnum(1), Value::nil()));
  H.collect(2); // Promote to generation 3... via target min(3, 3).
  unsigned OldGen = H.generationOf(Old.get());
  EXPECT_GE(OldGen, 1u);
  Value Addr = Old.get();
  H.collectMinor();
  EXPECT_EQ(Old.get(), Addr) << "old object must not move in a minor GC";
  H.verifyHeap();
}

TEST(CollectorTest, OldToYoungPointerIsRemembered) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::nil(), Value::nil()));
  H.collect(0); // Old is now generation 1.
  ASSERT_EQ(H.generationOf(Old.get()), 1u);
  // Create a young object referenced ONLY from the old one.
  {
    Root Young(H, H.cons(Value::fixnum(99), Value::nil()));
    H.setCar(Old.get(), Young.get());
  }
  H.collectMinor();
  Value Young = pairCar(Old.get());
  ASSERT_TRUE(Young.isPair()) << "young object kept alive via barrier";
  EXPECT_EQ(pairCar(Young).asFixnum(), 99);
  EXPECT_EQ(H.generationOf(Young), 1u);
  H.verifyHeap();
}

TEST(CollectorTest, OldVectorToYoungPointerIsRemembered) {
  Heap H(testConfig());
  Root Old(H, H.makeVector(8, Value::nil()));
  H.collect(1);
  ASSERT_GE(H.generationOf(Old.get()), 1u);
  H.vectorSet(Old.get(), 5, H.cons(Value::fixnum(1), Value::fixnum(2)));
  H.collectMinor();
  Value Young = objectField(Old.get(), 5);
  ASSERT_TRUE(Young.isPair());
  EXPECT_EQ(pairCar(Young).asFixnum(), 1);
  H.verifyHeap();
}

TEST(CollectorTest, UnreachableCycleIsReclaimed) {
  Heap H(testConfig());
  {
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), A.get()));
    H.setCdr(A.get(), B.get());
  }
  size_t Before = H.liveBytes();
  H.collectMinor();
  EXPECT_LT(H.liveBytes(), Before);
  H.verifyHeap();
}

TEST(CollectorTest, LargeObjectSurvives) {
  // A 3000-slot vector is a run of several segments: it moves one
  // generation per collection, whole.
  Heap H(testConfig());
  Root V(H, H.makeVector(3000, Value::fixnum(11)));
  for (size_t I = 0; I < 3000; I += 7)
    H.vectorSet(V.get(), I, Value::fixnum(static_cast<intptr_t>(I)));
  for (unsigned G = 0; G != 2; ++G) {
    H.collect(G);
    ASSERT_EQ(H.generationOf(V.get()), G + 1);
    ASSERT_EQ(objectLength(V.get()), 3000u);
    for (size_t I = 0; I != 3000; ++I)
      ASSERT_EQ(objectField(V.get(), I).asFixnum(),
                I % 7 ? 11 : static_cast<intptr_t>(I))
          << "slot " << I;
    H.verifyHeap();
  }
}

TEST(CollectorTest, CollectFullRepeatedly) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L);
  for (int K = 0; K != 5; ++K) {
    H.collectFull();
    Value P = L.get();
    for (int I = 999; I >= 0; --I) {
      ASSERT_EQ(pairCar(P).asFixnum(), I);
      P = pairCdr(P);
    }
    H.verifyHeap();
  }
  EXPECT_EQ(H.generationOf(L.get()), H.oldestGeneration());
}

TEST(CollectorTest, RootVectorIsUpdated) {
  Heap H(testConfig());
  RootVector RV(H);
  for (int I = 0; I != 100; ++I)
    RV.push_back(H.cons(Value::fixnum(I), Value::nil()));
  H.collectMinor();
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(pairCar(RV[static_cast<size_t>(I)]).asFixnum(), I);
  H.verifyHeap();
}

TEST(CollectorTest, StatsReportGenerations) {
  Heap H(testConfig());
  H.collect(2);
  EXPECT_EQ(H.lastStats().CollectedGeneration, 2u);
  EXPECT_EQ(H.lastStats().TargetGeneration, 3u);
  H.collect(3);
  EXPECT_EQ(H.lastStats().TargetGeneration, 3u)
      << "oldest generation collects into itself";
  EXPECT_EQ(H.totals().Collections, 2u);
}

TEST(CollectorTest, ScavengeReportsOneWorkerAndNoSteals) {
  // The end-to-end benchmark still reads these three fields; the
  // scavenge is serial, so they are fixed at 1, 0 and 0.
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L.get());
  H.collectMinor();
  H.collectFull();
  for (uint64_t Workers : {H.lastStats().GcWorkersUsed,
                           H.totals().GcWorkersUsed})
    EXPECT_EQ(Workers, 1u);
  for (uint64_t Steals :
       {H.lastStats().StealAttempts, H.lastStats().StealHits,
        H.totals().StealAttempts, H.totals().StealHits})
    EXPECT_EQ(Steals, 0u);
  EXPECT_EQ(H.totals().Collections, 2u);
}

TEST(CollectorTest, SegmentsAreRecycled) {
  Heap H(testConfig());
  for (int Round = 0; Round != 20; ++Round) {
    for (int I = 0; I != 20000; ++I)
      H.cons(Value::fixnum(I), Value::nil());
    H.collectMinor();
  }
  // Dead data from each round must be freed: usage stays bounded.
  EXPECT_LT(H.segmentsInUse(), 2000u);
  H.verifyHeap();
}

TEST(CollectorTest, AutoCollectTriggersAtSafepoints) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 64 * 1024;
  Heap H(C);
  Root Keep(H, Value::nil());
  for (int I = 0; I != 50000; ++I)
    Keep = H.cons(Value::fixnum(I), Keep.get());
  EXPECT_GT(H.collectionCount(), 0u) << "allocation must trigger GC";
  // The list must be fully intact despite collections moving it.
  Value P = Keep.get();
  for (int I = 49999; I >= 0; --I) {
    ASSERT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  H.verifyHeap();
}

TEST(CollectorTest, CollectRequestHandlerRunsAfterAutoGc) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 32 * 1024;
  Heap H(C);
  int Calls = 0;
  H.setCollectRequestHandler([&Calls](Heap &) { ++Calls; });
  for (int I = 0; I != 20000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  EXPECT_GT(Calls, 0);
}

/// True if interning \p Name finds a symbol already in the table: a
/// found symbol costs no allocation, a fresh one a string and a symbol.
bool internFinds(Heap &H, const char *Name) {
  const uint64_t Before = H.totalBytesAllocated();
  H.intern(Name);
  return H.totalBytesAllocated() == Before;
}

TEST(CollectorTest, WeakSymbolTableDropsDeadSymbols) {
  // Each collection drops exactly the dead symbols of the generations it
  // collects, and re-interning returns the same symbol while it lives.
  Heap H(testConfig());
  Root Alpha(H, H.intern("alpha"));
  Root Epsilon(H, H.intern("epsilon"));
  H.makeUninternedSymbol("scratch");
  H.intern("beta");
  H.intern("gamma");
  H.collectMinor();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 2u);
  EXPECT_EQ(H.generationOf(Alpha.get()), 1u);
  EXPECT_TRUE(internFinds(H, "alpha"));
  EXPECT_EQ(H.intern("alpha"), Alpha.get());
  EXPECT_FALSE(internFinds(H, "beta")) << "a dropped symbol is minted anew";
  H.verifyHeap();

  // Epsilon dies in generation 1, which a minor collection leaves alone.
  Epsilon = Value::falseV();
  H.collectMinor();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 1u) << "only the fresh beta";
  EXPECT_TRUE(internFinds(H, "epsilon"));
  H.verifyHeap();

  H.collectFull();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 1u) << "epsilon";
  EXPECT_FALSE(internFinds(H, "epsilon"));
  EXPECT_EQ(H.intern("alpha"), Alpha.get());
  H.verifyHeap();
}

TEST(CollectorTest, WeakSymbolTableAtScopeClose) {
  Heap H(testConfig());
  H.openScope();
  Root Escapes(H, H.intern("escapes"));
  H.intern("dies-in-scope");
  Root Box(H, H.cons(Value::nil(), Value::nil())); // In the outer scope.
  // An ordinary collection does not collect scopes: the dead in-scope
  // symbol keeps its entry.
  H.collectMinor();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 0u);
  EXPECT_TRUE(internFinds(H, "dies-in-scope"));
  H.verifyHeap();

  H.openScope();
  {
    Root Sym(H, H.intern("to-outer"));
    H.setCar(Box.get(), Sym.get());
  }
  H.intern("dies-in-inner");
  H.closeScope();
  EXPECT_EQ(H.lastScopeClose().SymbolsDropped, 1u);
  EXPECT_EQ(H.scopeDepthOf(pairCar(Box.get())), 1u)
      << "the escaping symbol graduated into the enclosing scope";
  EXPECT_TRUE(internFinds(H, "to-outer"));
  EXPECT_FALSE(internFinds(H, "dies-in-inner"));
  H.verifyHeap();

  H.setCar(Box.get(), Value::falseV());
  H.closeScope();
  // dies-in-scope, to-outer, and the fresh dies-in-inner.
  EXPECT_EQ(H.lastScopeClose().SymbolsDropped, 3u);
  EXPECT_EQ(H.scopeDepthOf(Escapes.get()), 0u);
  EXPECT_EQ(H.generationOf(Escapes.get()), 0u);
  EXPECT_EQ(H.intern("escapes"), Escapes.get());
  EXPECT_FALSE(internFinds(H, "to-outer"));
  H.verifyHeap();

  H.collectMinor();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 1u) << "the fresh to-outer";
  EXPECT_EQ(H.generationOf(Escapes.get()), 1u);
  EXPECT_EQ(H.intern("escapes"), Escapes.get());
  H.verifyHeap();
}

//===----------------------------------------------------------------------===//
// Scavenge order: the Cheney sweep copies objects in exactly the order a
// breadth-first walk of the graph predicts, per to-space context.
//===----------------------------------------------------------------------===//

/// The from-space graph below a set of roots, read off the heap before a
/// collection, and the copy order Section 4's algorithm predicts for it.
class ScavengeModel {
public:
  struct Node {
    SpaceKind Space = SpaceKind::Pair;
    uint64_t Bytes = 0;
    std::vector<uintptr_t> Kids; ///< Strong fields, in sweep order.
  };

  /// Walks every object reachable from \p Roots through strong fields
  /// that lives in a generation <= \p G at scope depth \p Depth: the
  /// from-space of a collection of G (Depth 0), or of the close of the
  /// scope at Depth (G 0; scope objects are tagged generation 0).
  ScavengeModel(Heap &H, const std::vector<Value> &Roots, unsigned G,
                unsigned Depth = 0)
      : H(H), G(G), Depth(Depth) {
    for (Value R : Roots)
      visit(R);
  }

  bool contains(uintptr_t Bits) const { return Nodes.count(Bits) != 0; }
  size_t size() const { return Nodes.size(); }

  uint64_t bytesOf(uintptr_t Bits) const { return Nodes.at(Bits).Bytes; }
  uint64_t bytes() const {
    uint64_t Sum = 0;
    for (const auto &KV : Nodes)
      Sum += KV.second.Bytes;
    return Sum;
  }
  /// Cheney's algorithm over the model: forward the roots in order, then
  /// sweep the pair, typed and weak-pair to-space contexts in turn to a
  /// fixpoint. Returns the bits of every copy, in copy order.
  std::vector<uintptr_t> copyOrder(const std::vector<Value> &Roots) const {
    std::vector<uintptr_t> Queues[NumSpaces];
    size_t Cursors[NumSpaces] = {};
    std::unordered_set<uintptr_t> Copied;
    std::vector<uintptr_t> Order;
    auto Forward = [&](uintptr_t B) {
      if (!contains(B) || !Copied.insert(B).second)
        return;
      Order.push_back(B);
      Queues[static_cast<unsigned>(Nodes.at(B).Space)].push_back(B);
    };
    for (Value R : Roots)
      Forward(R.bits());
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (SpaceKind Sp :
           {SpaceKind::Pair, SpaceKind::Typed, SpaceKind::WeakPair}) {
        const unsigned S = static_cast<unsigned>(Sp);
        for (size_t &Cur = Cursors[S]; Cur < Queues[S].size(); Progress = true)
          for (uintptr_t K : Nodes.at(Queues[S][Cur++]).Kids)
            Forward(K);
      }
    }
    return Order;
  }

private:
  void visit(Value Root) {
    std::vector<Value> Work{Root};
    while (!Work.empty()) {
      const Value V = Work.back();
      Work.pop_back();
      if (!V.isHeapPointer() || contains(V.bits()) ||
          H.generationOf(V) > G || H.scopeDepthOf(V) != Depth)
        continue;
      Node N;
      N.Space = H.spaceOf(V);
      if (V.isPair()) {
        N.Bytes = 2 * sizeof(uintptr_t);
        // A weak pair's car is not traced by the sweep.
        if (N.Space != SpaceKind::WeakPair)
          N.Kids.push_back(pairCar(V).bits());
        N.Kids.push_back(pairCdr(V).bits());
      } else {
        const uintptr_t Header = *V.objectHeader();
        N.Bytes = objectAllocWords(Header) * sizeof(uintptr_t);
        for (size_t I = 0, E = objectPointerFieldCount(Header); I != E; ++I)
          N.Kids.push_back(V.objectHeader()[1 + I]);
      }
      for (auto It = N.Kids.rbegin(); It != N.Kids.rend(); ++It)
        Work.push_back(Value::fromBits(*It));
      Nodes.emplace(V.bits(), std::move(N));
    }
  }

  Heap &H;
  unsigned G;
  unsigned Depth;
  std::unordered_map<uintptr_t, Node> Nodes;
};

/// Records the collector's copies through the forwarding witness.
struct CopyLog {
  std::vector<uintptr_t> Old;
  std::unordered_map<uintptr_t, uintptr_t> NewOf;
  static void witness(void *Ctx, uintptr_t OldBits, uintptr_t NewBits) {
    auto *Log = static_cast<CopyLog *>(Ctx);
    Log->Old.push_back(OldBits);
    Log->NewOf[OldBits] = NewBits;
  }
};

HeapConfig scavengeConfig() {
  HeapConfig C = testConfig();
  // The counts are exact only if nothing collects while the graph is
  // built.
  C.StressGC = false;
  return C;
}

/// Builds the mixed graph every scavenge-order case collects, into the
/// eight slots of \p RootVec:
///   0: a 700-pair list (three segment runs of pairs) whose cars cycle
///      through fixnums, strings, records and two-element vectors;
///   1: a 600-element (> 4 KiB) vector of pairs sharing one record;
///   2: a record whose fields hold a weak pair onto a live string, a
///      weak pair onto a dead pair, and the 600-element vector again;
///   3: a two-pair cycle;
///   4: the live string the first weak pair points at;
///   5-7: fixnums.
void buildMixedGraph(Heap &H, Root &RootVec) {
  RootVec = H.makeVector(8, Value::fixnum(0));
  Root List(H, Value::nil());
  for (int I = 0; I != 700; ++I) {
    Root Car(H, Value::fixnum(I));
    switch (I % 4) {
    case 1:
      Car = H.makeString("car");
      break;
    case 2:
      Car = H.makeRecord(Value::fixnum(I), 2, Value::fixnum(I));
      break;
    case 3:
      Car = H.makeVector(2, Value::nil());
      break;
    }
    List = H.cons(Car.get(), List.get());
  }
  H.vectorSet(RootVec.get(), 0, List.get());

  Root Shared(H, H.makeRecord(Value::fixnum(-1), 3, Value::nil()));
  Root Big(H, H.makeVector(600, Value::nil()));
  for (size_t I = 0; I != 600; ++I) {
    Value P = H.cons(Shared.get(), Value::fixnum(static_cast<int64_t>(I)));
    H.vectorSet(Big.get(), I, P);
  }
  H.vectorSet(RootVec.get(), 1, Big.get());

  Root Live(H, H.makeString("weakly and strongly held"));
  Root Rec(H, H.makeRecord(Value::fixnum(7), 3, Value::nil()));
  {
    Root Weak(H, H.weakCons(Live.get(), Value::fixnum(1)));
    H.recordSet(Rec.get(), 0, Weak.get());
  }
  {
    Root Dead(H, H.cons(Value::fixnum(2), Value::nil()));
    Root Weak(H, H.weakCons(Dead.get(), Value::fixnum(2)));
    H.recordSet(Rec.get(), 1, Weak.get());
  }
  H.recordSet(Rec.get(), 2, Big.get());
  H.vectorSet(RootVec.get(), 2, Rec.get());

  Root A(H, H.cons(Value::fixnum(3), Value::nil()));
  Root B(H, H.cons(Value::fixnum(4), A.get()));
  H.setCdr(A.get(), B.get());
  H.vectorSet(RootVec.get(), 3, A.get());
  H.vectorSet(RootVec.get(), 4, Live.get());
}

/// Runs \p Evacuate (a collection or a scope close) with the copy log
/// attached and checks the copies against \p Model: the same objects,
/// copied in the predicted order (globally, and so per space), each at
/// its to-space context's frontier.
template <typename Fn>
void expectCopiesMatchModel(Heap &H, const ScavengeModel &Model,
                            const std::vector<Value> &Roots, Fn Evacuate) {
  const std::vector<uintptr_t> Expected = Model.copyOrder(Roots);
  ASSERT_EQ(Expected.size(), Model.size()) << "every node is reachable";
  CopyLog Log;
  H.setForwardWitness(&CopyLog::witness, &Log);
  Evacuate();
  H.setForwardWitness(nullptr, nullptr);

  EXPECT_EQ(Log.Old, Expected) << "copy order differs from the Cheney model";
  // Each copy is bump-allocated right after the previous copy into the
  // same (space, generation, scope depth), or opens a new run at a
  // segment boundary: to-space order is copy order.
  std::map<std::tuple<unsigned, unsigned, unsigned>, uintptr_t> Frontier;
  for (uintptr_t B : Log.Old) {
    const Value New = Value::fromBits(Log.NewOf.at(B));
    const uintptr_t Addr = New.heapAddress();
    const std::tuple<unsigned, unsigned, unsigned> Key{
        static_cast<unsigned>(H.spaceOf(New)), H.generationOf(New),
        H.scopeDepthOf(New)};
    auto It = Frontier.find(Key);
    if (It != Frontier.end()) {
      EXPECT_TRUE(Addr == It->second || Addr % SegmentBytes == 0)
          << "copy of " << B << " is not at its context's frontier";
    }
    Frontier[Key] = Addr + Model.bytesOf(B);
  }
}

/// Collects generation \p G and checks the copies against \p Model,
/// with exact statistics.
void expectScavengeMatchesModel(Heap &H, unsigned G,
                                const ScavengeModel &Model,
                                const std::vector<Value> &Roots,
                                uint64_t ExpectPromoted) {
  expectCopiesMatchModel(H, Model, Roots, [&] { H.collect(G); });
  const GcStats &S = H.lastStats();
  EXPECT_EQ(S.ObjectsCopied, Model.size());
  EXPECT_EQ(S.BytesCopied, Model.bytes());
  EXPECT_EQ(S.ObjectsPromoted, ExpectPromoted);
  H.verifyHeap();
}

/// Closes the innermost scope and checks the copies against \p Model,
/// with exact statistics.
void expectCloseMatchesModel(Heap &H, const ScavengeModel &Model,
                             const std::vector<Value> &Roots) {
  expectCopiesMatchModel(H, Model, Roots, [&] { H.closeScope(); });
  const ScopeCloseStats &S = H.lastScopeClose();
  EXPECT_EQ(S.ObjectsEvacuated, Model.size());
  EXPECT_EQ(S.BytesEvacuated, Model.bytes());
  H.verifyHeap();
}

TEST(ScavengeOrderTest, MinorAndFullCollectionsFollowTheCheneyOrder) {
  Heap H(scavengeConfig());
  {
    // Leave a partly filled run in the oldest generation of every space,
    // so a minor collection that copied into the wrong generation would
    // find room there. The objects die before the full collection below.
    Root Pair(H, H.cons(Value::fixnum(0), Value::nil()));
    Root Weak(H, H.weakCons(Pair.get(), Value::nil()));
    Root Rec(H, H.makeRecord(Value::fixnum(0), 1, Value::nil()));
    Root Str(H, H.makeString("old"));
    H.collect(H.oldestGeneration());
  }
  Root RootVec(H, Value::nil());
  buildMixedGraph(H, RootVec);

  {
    const std::vector<Value> Roots{RootVec.get()};
    ScavengeModel Model(H, Roots, 0);
    expectScavengeMatchesModel(H, 0, Model, Roots, Model.size());
    EXPECT_EQ(H.generationOf(RootVec.get()), 1u);
  }
  {
    // Everything now sits in generation 1; a full collection copies it
    // all again, into the oldest generation.
    const std::vector<Value> Roots{RootVec.get()};
    ScavengeModel Model(H, Roots, H.oldestGeneration());
    expectScavengeMatchesModel(H, H.oldestGeneration(), Model, Roots,
                               Model.size());
    EXPECT_EQ(H.generationOf(RootVec.get()), H.oldestGeneration());
  }
  Value Cycle = objectField(RootVec.get(), 3);
  EXPECT_EQ(pairCdr(pairCdr(Cycle)), Cycle);
  Value Rec = objectField(RootVec.get(), 2);
  EXPECT_EQ(pairCar(objectField(Rec, 0)), objectField(RootVec.get(), 4));
  EXPECT_TRUE(pairCar(objectField(Rec, 1)).isFalse()) << "dead weak car";
}

TEST(ScavengeOrderTest, OpenScopeObjectsAreRootsInScopeOrder) {
  // With a scope open, scope objects are uncollected containers scanned
  // right after the roots, in the scope's allocation order.
  Heap H(scavengeConfig());
  Root RootVec(H, Value::nil());
  buildMixedGraph(H, RootVec);
  Root OnlyFromScope(H, H.makeRecord(Value::fixnum(9), 2, Value::nil()));
  {
    Root Field(H, H.cons(Value::fixnum(1), Value::nil()));
    H.recordSet(OnlyFromScope.get(), 0, Field.get());
  }

  H.openScope();
  Root ScopeVec(H, H.makeVector(2, Value::nil()));
  H.vectorSet(ScopeVec.get(), 0, OnlyFromScope.get());
  H.vectorSet(ScopeVec.get(), 1, objectField(RootVec.get(), 2));
  OnlyFromScope = Value::nil();

  const std::vector<Value> Roots{RootVec.get(), objectField(ScopeVec.get(), 0),
                                 objectField(ScopeVec.get(), 1)};
  ScavengeModel Model(H, Roots, 0);
  expectScavengeMatchesModel(H, 0, Model, Roots, Model.size());
  H.closeScope();
  H.verifyHeap();
}

TEST(ScavengeOrderTest, ScopeCloseFollowsTheCheneyOrder) {
  // A close is the same evacuation over another extent: roots first, then
  // the escape set, then the Cheney sweep of the enclosing extent's
  // contexts from their pre-close frontiers.
  Heap H(scavengeConfig());
  // A partly filled generation-0 run in every space, and an escape
  // container outside the scope.
  Root Old(H, H.makeVector(1, Value::nil()));
  Root OldWeak(H, H.weakCons(Old.get(), Value::nil()));
  Root OldStr(H, H.makeString("old"));

  // Outermost close: survivors graduate into generation 0.
  {
    H.openScope();
    Root RootVec(H, Value::nil());
    buildMixedGraph(H, RootVec);
    Value OnlyEscaped = H.cons(Value::fixnum(5), Value::nil());
    H.vectorSet(Old.get(), 0, OnlyEscaped); // Old -> scope: an escape.
    H.cons(Value::fixnum(6), Value::nil()); // Dies untraced.

    const std::vector<Value> Roots{RootVec.get(), OnlyEscaped};
    ScavengeModel Model(H, Roots, 0, /*Depth=*/1);
    expectCloseMatchesModel(H, Model, Roots);
    EXPECT_EQ(H.scopeDepthOf(RootVec.get()), 0u);
    EXPECT_EQ(H.generationOf(RootVec.get()), 0u);
    EXPECT_EQ(pairCar(objectField(Old.get(), 0)).asFixnum(), 5);
  }

  // Nested close: survivors graduate into the enclosing scope, after what
  // that scope already holds.
  H.openScope();
  Root Holder(H, H.makeVector(1, Value::nil()));
  Root OuterWeak(H, H.weakCons(Holder.get(), Value::nil()));
  Root OuterStr(H, H.makeString("outer"));
  {
    H.openScope();
    Root RootVec(H, Value::nil());
    buildMixedGraph(H, RootVec);
    Value OnlyEscaped = H.makeRecord(Value::fixnum(8), 1, Value::nil());
    H.vectorSet(Holder.get(), 0, OnlyEscaped); // Outer -> inner scope.

    const std::vector<Value> Roots{RootVec.get(), OnlyEscaped};
    ScavengeModel Model(H, Roots, 0, /*Depth=*/2);
    expectCloseMatchesModel(H, Model, Roots);
    EXPECT_EQ(H.scopeDepthOf(RootVec.get()), 1u);
    EXPECT_EQ(H.scopeDepthOf(objectField(Holder.get(), 0)), 1u);
    Value Rec = objectField(RootVec.get(), 2);
    EXPECT_EQ(pairCar(objectField(Rec, 0)), objectField(RootVec.get(), 4));
    EXPECT_TRUE(pairCar(objectField(Rec, 1)).isFalse()) << "dead weak car";
  }
  H.closeScope();
  H.verifyHeap();
}

} // namespace

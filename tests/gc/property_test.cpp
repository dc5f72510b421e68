//===- tests/gc/property_test.cpp - Randomized model-based stress --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Property tests drive the collector with randomized workloads against
// a C++-side model, sweeping heap configurations with TEST_P. The
// invariants are the DESIGN.md Section 4 list: reachable objects
// survive intact; a value registered k times is retrieved exactly k
// times once dropped, and never while live; weak boxes are
// live-or-broken, never dangling; the heap verifier stays clean.
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "support/XorShift.h"

#include <gtest/gtest.h>

#include <map>

using namespace gengc;

namespace {

struct HeapParams {
  unsigned Generations;
  unsigned Radix;
  bool AutoCollect;
  size_t Gen0Bytes;
  uint64_t Seed;
};

HeapConfig configFor(const HeapParams &P) {
  HeapConfig C;
  C.ArenaBytes = 128u * 1024 * 1024;
  C.Generations = P.Generations;
  C.CollectionRadix = P.Radix;
  C.AutoCollect = P.AutoCollect;
  C.Gen0CollectBytes = P.Gen0Bytes;
  return C;
}

/// The "_tenure1" in each name is the paper's promotion rule (a survivor
/// is promoted on its first copy), kept so instance names stay stable.
std::string paramName(const ::testing::TestParamInfo<HeapParams> &Info) {
  const HeapParams &P = Info.param;
  return "gens" + std::to_string(P.Generations) + "_radix" +
         std::to_string(P.Radix) + (P.AutoCollect ? "_auto" : "_manual") +
         "_tenure1_seed" + std::to_string(P.Seed);
}

/// A model node: (id payload0 payload1), payloads derived from the id
/// and a mutation counter so content integrity is checkable.
class NodeModel {
public:
  NodeModel(Heap &H, size_t Slots)
      : H(H), Roots(H), Ids(Slots, -1), Mutations(Slots, 0) {
    for (size_t I = 0; I != Slots; ++I)
      Roots.push_back(Value::nil());
  }

  static intptr_t payload0(int64_t Id, int Mutation) {
    return static_cast<intptr_t>(Id * 3 + Mutation + 1);
  }
  static intptr_t payload1(int64_t Id, int Mutation) {
    return static_cast<intptr_t>(Id * 7 + Mutation * 5 + 2);
  }

  bool slotLive(size_t Slot) const { return Ids[Slot] != -1; }
  int64_t idAt(size_t Slot) const { return Ids[Slot]; }
  Value nodeAt(size_t Slot) const { return Roots[Slot]; }
  size_t slotCount() const { return Ids.size(); }

  void createNode(size_t Slot, int64_t Id) {
    Root Tail(H, H.cons(Value::fixnum(payload1(Id, 0)), Value::nil()));
    Root Mid(H, H.cons(Value::fixnum(payload0(Id, 0)), Tail.get()));
    Roots[Slot] = H.cons(Value::fixnum(Id), Mid.get());
    Ids[Slot] = Id;
    Mutations[Slot] = 0;
  }

  void dropNode(size_t Slot) {
    Roots[Slot] = Value::nil();
    Ids[Slot] = -1;
  }

  void mutateNode(size_t Slot) {
    int M = ++Mutations[Slot];
    Value Node = Roots[Slot];
    Value Mid = pairCdr(Node);
    H.setCar(Mid, Value::fixnum(payload0(Ids[Slot], M)));
    H.setCar(pairCdr(Mid), Value::fixnum(payload1(Ids[Slot], M)));
  }

  void checkNode(size_t Slot) const {
    ASSERT_TRUE(slotLive(Slot));
    Value Node = Roots[Slot];
    ASSERT_TRUE(Node.isPair()) << "rooted node must stay a pair";
    ASSERT_EQ(pairCar(Node).asFixnum(), Ids[Slot]);
    Value Mid = pairCdr(Node);
    ASSERT_EQ(pairCar(Mid).asFixnum(),
              payload0(Ids[Slot], Mutations[Slot]));
    ASSERT_EQ(pairCar(pairCdr(Mid)).asFixnum(),
              payload1(Ids[Slot], Mutations[Slot]));
    ASSERT_TRUE(pairCdr(pairCdr(Mid)).isNil());
  }

  void checkAll() const {
    for (size_t I = 0; I != Ids.size(); ++I)
      if (slotLive(I))
        checkNode(I);
  }

private:
  Heap &H;
  RootVector Roots;
  std::vector<int64_t> Ids;
  std::vector<int> Mutations;
};

class GuardianPropertyTest : public ::testing::TestWithParam<HeapParams> {
};

// Invariant 2: a value registered k times is retrieved exactly k times
// after it becomes inaccessible, and never while reachable.
TEST_P(GuardianPropertyTest, RegistrationCountsAreExact) {
  Heap H(configFor(GetParam()));
  XorShift Rng(GetParam().Seed);
  Guardian G(H);
  NodeModel Model(H, 64);

  std::map<int64_t, int> Registered; // id -> times registered
  std::map<int64_t, int> Retrieved;  // id -> times retrieved
  std::map<int64_t, bool> Dropped;
  int64_t NextId = 0;

  auto DrainInto = [&] {
    G.drain([&](Value V) {
      ASSERT_TRUE(V.isPair());
      int64_t Id = pairCar(V).asFixnum();
      ++Retrieved[Id];
      ASSERT_TRUE(Dropped[Id]) << "live object must never be retrieved";
    });
  };

  for (int Step = 0; Step != 1500; ++Step) {
    size_t Slot = static_cast<size_t>(Rng.nextBelow(Model.slotCount()));
    switch (Rng.nextBelow(6)) {
    case 0: // Create (replacing whatever was in the slot).
      if (Model.slotLive(Slot))
        Dropped[Model.idAt(Slot)] = true;
      Model.createNode(Slot, NextId);
      Dropped[NextId] = false;
      ++NextId;
      break;
    case 1: // Register with the guardian, possibly multiple times.
      if (Model.slotLive(Slot)) {
        int K = 1 + static_cast<int>(Rng.nextBelow(3));
        for (int I = 0; I != K; ++I)
          G.protect(Model.nodeAt(Slot));
        Registered[Model.idAt(Slot)] += K;
      }
      break;
    case 2: // Drop.
      if (Model.slotLive(Slot)) {
        Dropped[Model.idAt(Slot)] = true;
        Model.dropNode(Slot);
      }
      break;
    case 3: // Mutate.
      if (Model.slotLive(Slot))
        Model.mutateNode(Slot);
      break;
    case 4: // Collect a random generation.
      H.collect(static_cast<unsigned>(
          Rng.nextBelow(H.config().Generations)));
      DrainInto();
      break;
    case 5: // Allocate noise (may trigger automatic collection).
      for (int I = 0; I != 32; ++I)
        H.cons(Value::fixnum(I), Value::nil());
      break;
    }
    if (Step % 100 == 99) {
      Model.checkAll();
      H.verifyHeap();
    }
  }

  // Flush everything out: drop all, then collect every generation until
  // no more retrievals appear.
  for (size_t I = 0; I != Model.slotCount(); ++I)
    if (Model.slotLive(I)) {
      Dropped[Model.idAt(I)] = true;
      Model.dropNode(I);
    }
  for (unsigned Round = 0; Round != H.config().Generations + 1; ++Round) {
    H.collectFull();
    DrainInto();
  }

  for (const auto &[Id, Count] : Registered)
    EXPECT_EQ(Retrieved[Id], Count)
        << "id " << Id << " must be retrieved exactly once per "
        << "registration";
  for (const auto &[Id, Count] : Retrieved)
    EXPECT_EQ(Registered[Id], Count) << "spurious retrievals for " << Id;
  H.verifyHeap();
}

// Invariants 1 and 5: reachable structure survives intact, and weak
// boxes are live-or-#f, never dangling.
TEST_P(GuardianPropertyTest, ReachabilityAndWeakness) {
  Heap H(configFor(GetParam()));
  XorShift Rng(GetParam().Seed ^ 0x5eed);
  NodeModel Model(H, 48);
  RootVector WeakBoxes(H);       // weak box per watched slot
  std::vector<int64_t> BoxedIds; // id the box was created for

  int64_t NextId = 0;
  for (int Step = 0; Step != 1200; ++Step) {
    size_t Slot = static_cast<size_t>(Rng.nextBelow(Model.slotCount()));
    switch (Rng.nextBelow(6)) {
    case 0:
      Model.createNode(Slot, NextId++);
      break;
    case 1:
      if (Model.slotLive(Slot)) {
        WeakBoxes.push_back(H.weakCons(Model.nodeAt(Slot), Value::nil()));
        BoxedIds.push_back(Model.idAt(Slot));
      }
      break;
    case 2:
      if (Model.slotLive(Slot))
        Model.dropNode(Slot);
      break;
    case 3:
      if (Model.slotLive(Slot))
        Model.mutateNode(Slot);
      break;
    case 4:
      H.collect(static_cast<unsigned>(
          Rng.nextBelow(H.config().Generations)));
      break;
    case 5:
      for (int I = 0; I != 64; ++I)
        H.cons(Value::fixnum(I), Value::nil());
      break;
    }
    if (Step % 150 == 149) {
      Model.checkAll();
      // Weak boxes: broken, or a pair carrying the id they were made
      // for (never garbage).
      for (size_t I = 0; I != WeakBoxes.size(); ++I) {
        Value Content = pairCar(WeakBoxes[I]);
        if (Content.isFalse())
          continue;
        ASSERT_TRUE(Content.isPair());
        ASSERT_EQ(pairCar(Content).asFixnum(), BoxedIds[I]);
      }
      H.verifyHeap();
    }
  }

  // Endgame: drop everything; all weak boxes must eventually break.
  for (size_t I = 0; I != Model.slotCount(); ++I)
    if (Model.slotLive(I))
      Model.dropNode(I);
  for (unsigned Round = 0; Round != H.config().Generations + 1; ++Round)
    H.collectFull();
  for (size_t I = 0; I != WeakBoxes.size(); ++I)
    EXPECT_TRUE(pairCar(WeakBoxes[I]).isFalse())
        << "weak box " << I << " must break once its target is dropped";
  H.verifyHeap();
}

// Invariant 6 under randomness: structures with internal sharing and
// cycles, registered piecewise, come back whole.
TEST_P(GuardianPropertyTest, SharedCyclicStructures) {
  Heap H(configFor(GetParam()));
  XorShift Rng(GetParam().Seed ^ 0xc1c1e);
  Guardian G(H);

  for (int Round = 0; Round != 30; ++Round) {
    const size_t N = 2 + Rng.nextBelow(6);
    {
      // Build a ring of N pairs, register a random subset.
      RootVector Ring(H);
      for (size_t I = 0; I != N; ++I)
        Ring.push_back(
            H.cons(Value::fixnum(static_cast<intptr_t>(I)), Value::nil()));
      for (size_t I = 0; I != N; ++I)
        H.setCdr(Ring[I], Ring[(I + 1) % N]);
      for (size_t I = 0; I != N; ++I)
        if (Rng.chance(1, 2))
          G.protect(Ring[I]);
    } // Whole ring dropped.
    H.collectFull();
    H.collectFull();
    G.drain([&](Value V) {
      ASSERT_TRUE(V.isPair());
      // Walk the ring from the retrieved piece: it must be complete.
      size_t Steps = 0;
      Value P = V;
      do {
        ASSERT_TRUE(P.isPair());
        ASSERT_LT(pairCar(P).asFixnum(), static_cast<intptr_t>(N));
        P = pairCdr(P);
        ASSERT_LT(++Steps, N + 1);
      } while (P != V);
      ASSERT_EQ(Steps, N) << "ring preserved in its entirety";
    });
    H.verifyHeap();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GuardianPropertyTest,
    ::testing::Values(
        HeapParams{4, 4, false, 1u << 20, 1},
        HeapParams{4, 4, false, 1u << 20, 2},
        HeapParams{2, 2, false, 1u << 20, 3},
        HeapParams{8, 2, false, 1u << 20, 4},
        HeapParams{1, 2, false, 1u << 20, 5}, // Non-generational limit.
        HeapParams{4, 4, true, 32u * 1024, 6},
        HeapParams{3, 8, true, 64u * 1024, 7},
        HeapParams{6, 3, true, 16u * 1024, 8},
        HeapParams{3, 4, true, 32u * 1024, 11},
        HeapParams{2, 2, true, 24u * 1024, 12}),
    paramName);

} // namespace

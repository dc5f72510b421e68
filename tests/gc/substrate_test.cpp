//===- tests/gc/substrate_test.cpp - Arena, contexts, support ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "heap/Arena.h"
#include "heap/DonatedGraph.h"
#include "heap/SpaceContext.h"
#include "object/Layout.h"
#include "support/MathExtras.h"
#include "support/PtrHashSet.h"
#include "support/XorShift.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

using namespace gengc;

namespace {

//===----------------------------------------------------------------------===//
// MathExtras.
//===----------------------------------------------------------------------===//

TEST(MathExtrasTest, Basics) {
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(4096));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(12));
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(4097, 4096), 8192u);
  EXPECT_TRUE(isAligned(4096, 4096));
  EXPECT_FALSE(isAligned(4097, 4096));
  EXPECT_EQ(divideCeil(10, 3), 4u);
  EXPECT_EQ(divideCeil(9, 3), 3u);
  EXPECT_EQ(divideCeil(0, 3), 0u);
  EXPECT_EQ(nextPowerOf2(0), 1u);
  EXPECT_EQ(nextPowerOf2(5), 8u);
  EXPECT_EQ(nextPowerOf2(8), 8u);
}

TEST(MathExtrasTest, PointerHashSpreads) {
  // Adjacent inputs should produce well-spread hashes.
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(hashPointerBits(I * 8) & 0xFFFF);
  EXPECT_GT(Seen.size(), 900u) << "hash must spread aligned addresses";
}

//===----------------------------------------------------------------------===//
// XorShift.
//===----------------------------------------------------------------------===//

TEST(XorShiftTest, DeterministicAndSeedSensitive) {
  XorShift A(42), B(42), C(43);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  XorShift A2(42);
  for (int I = 0; I != 10; ++I)
    if (A2.next() != C.next())
      Differs = true;
  EXPECT_TRUE(Differs);
}

TEST(XorShiftTest, BoundsRespected) {
  XorShift R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

//===----------------------------------------------------------------------===//
// PtrHashSet.
//===----------------------------------------------------------------------===//

TEST(PtrHashSetTest, InsertContainsClear) {
  PtrHashSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(8));
  EXPECT_TRUE(S.insert(8));
  EXPECT_FALSE(S.insert(8)) << "duplicate insert reports false";
  EXPECT_TRUE(S.contains(8));
  EXPECT_EQ(S.size(), 1u);
  S.clear();
  EXPECT_FALSE(S.contains(8));
  EXPECT_TRUE(S.empty());
}

TEST(PtrHashSetTest, GrowsAndKeepsEverything) {
  PtrHashSet S;
  for (uintptr_t I = 1; I <= 10000; ++I)
    S.insert(I * 16 + 1);
  EXPECT_EQ(S.size(), 10000u);
  for (uintptr_t I = 1; I <= 10000; ++I)
    ASSERT_TRUE(S.contains(I * 16 + 1));
  EXPECT_FALSE(S.contains(3));
}

TEST(PtrHashSetTest, SnapshotRoundTrip) {
  PtrHashSet S;
  for (uintptr_t I = 1; I <= 100; ++I)
    S.insert(I * 8);
  std::vector<uintptr_t> Snap = {42}; // Replaced, not appended to.
  S.snapshotInto(Snap);
  EXPECT_EQ(Snap.size(), 100u);
  PtrHashSet T;
  T.assign(Snap);
  for (uintptr_t I = 1; I <= 100; ++I)
    EXPECT_TRUE(T.contains(I * 8));
}

//===----------------------------------------------------------------------===//
// Arena.
//===----------------------------------------------------------------------===//

/// Frees one run as a batch of one.
void freeOne(Arena &A, uint32_t First, uint32_t Count) {
  std::vector<SegmentRun> Batch{{First, Count, 0}};
  A.freeRuns(Batch);
}

/// Every call an Arena makes to its segment observer.
struct ObservedRun {
  bool IsAlloc;
  uint32_t First;
  uint32_t Count;
  SpaceKind Space;
  uint8_t Generation;
  bool operator==(const ObservedRun &O) const {
    return IsAlloc == O.IsAlloc && First == O.First && Count == O.Count &&
           Space == O.Space && Generation == O.Generation;
  }
};

void observeRun(void *Ctx, bool IsAlloc, uint32_t First, uint32_t Count,
                SpaceKind Space, uint8_t Generation) {
  static_cast<std::vector<ObservedRun> *>(Ctx)->push_back(
      {IsAlloc, First, Count, Space, Generation});
}

TEST(ArenaTest, AllocateAndTag) {
  Arena A(16 * 1024 * 1024);
  uint32_t S = A.allocateRun(3, SpaceKind::Typed, 2);
  for (uint32_t I = S; I != S + 3; ++I) {
    EXPECT_TRUE(A.infoAt(I).inUse());
    EXPECT_EQ(A.infoAt(I).Space, SpaceKind::Typed);
    EXPECT_EQ(A.infoAt(I).Generation, 2);
  }
  EXPECT_EQ(A.segmentsInUse(), 3u);
  // rootcheck:allow(segment-base) — the substrate test addresses the
  // arena directly; that is the interface under test.
  uintptr_t Addr = reinterpret_cast<uintptr_t>(A.segmentBase(S)) + 100;
  EXPECT_TRUE(A.containsAddress(Addr));
  EXPECT_EQ(A.segmentIndexOf(Addr), S);
  EXPECT_EQ(&A.infoFor(Addr), &A.infoAt(S));
}

TEST(ArenaTest, FreeAndCoalesce) {
  Arena A(16 * 1024 * 1024);
  uint32_t R1 = A.allocateRun(4, SpaceKind::Pair, 0);
  uint32_t R2 = A.allocateRun(4, SpaceKind::Pair, 0);
  uint32_t R3 = A.allocateRun(4, SpaceKind::Pair, 0);
  EXPECT_EQ(A.segmentsInUse(), 12u);
  freeOne(A, R1, 4);
  freeOne(A, R3, 4);
  freeOne(A, R2, 4); // Middle free must merge all three.
  EXPECT_EQ(A.segmentsInUse(), 0u);
  // After coalescing, a run spanning all twelve segments must fit where
  // the three smaller ones were.
  uint32_t Big = A.allocateRun(12, SpaceKind::Data, 1);
  EXPECT_EQ(Big, R1);
}

TEST(ArenaTest, FirstFitReusesFreedSpace) {
  Arena A(4 * 1024 * 1024);
  uint32_t R1 = A.allocateRun(2, SpaceKind::Pair, 0);
  A.allocateRun(2, SpaceKind::Pair, 0);
  freeOne(A, R1, 2);
  uint32_t R3 = A.allocateRun(1, SpaceKind::Typed, 0);
  EXPECT_EQ(R3, R1) << "first fit should reuse the earliest hole";
}

TEST(ArenaTest, BatchFreeSortsAndCoalesces) {
  Arena A(16 * 1024 * 1024);
  std::vector<ObservedRun> Seen;
  A.setSegmentObserver(observeRun, &Seen);
  // Five adjacent runs of mixed tags, then a guard run that stays live.
  uint32_t R[5];
  for (unsigned I = 0; I != 5; ++I)
    R[I] = A.allocateRun(I + 1, static_cast<SpaceKind>(I % NumSpaces),
                         static_cast<uint8_t>(I));
  const uint32_t Guard = A.allocateRun(1, SpaceKind::Data, 7);
  EXPECT_EQ(A.segmentsInUse(), 16u);
  Seen.clear();

  // Out of order, with a hole (R[2]) that keeps two merged groups apart.
  std::vector<SegmentRun> Batch{
      {R[4], 5, 0}, {R[0], 1, 0}, {R[3], 4, 0}, {R[1], 2, 0}};
  A.freeRuns(Batch);
  EXPECT_EQ(A.segmentsInUse(), 16u - 12u);
  // One observer call per run, in the order given, with the run's tags.
  const std::vector<ObservedRun> Want{
      {false, R[4], 5, SpaceKind::Pair, 4},
      {false, R[0], 1, SpaceKind::Pair, 0},
      {false, R[3], 4, SpaceKind::Data, 3},
      {false, R[1], 2, SpaceKind::WeakPair, 1}};
  EXPECT_EQ(Seen, Want);
  for (uint32_t S = R[0]; S != R[2]; ++S)
    EXPECT_FALSE(A.infoAt(S).inUse());
  EXPECT_TRUE(A.infoAt(R[2]).inUse());
  EXPECT_TRUE(A.infoAt(Guard).inUse());

  // R[0..1] merged into one free run of 3 and R[3..4] into one of 9: a
  // 9-segment request fits only in the second group, and a 3-segment one
  // lands at the start of the first.
  EXPECT_EQ(A.allocateRun(9, SpaceKind::Pair, 0), R[3]);
  EXPECT_EQ(A.allocateRun(3, SpaceKind::Pair, 0), R[0]);
}

TEST(ArenaTest, BatchFreeMergesWithExistingFreeRuns) {
  Arena A(16 * 1024 * 1024);
  uint32_t R[6];
  for (unsigned I = 0; I != 6; ++I)
    R[I] = A.allocateRun(2, SpaceKind::Pair, 0);
  const uint32_t Guard = A.allocateRun(1, SpaceKind::Pair, 0);
  // Free runs already on the list at R[1] and R[4].
  freeOne(A, R[1], 2);
  freeOne(A, R[4], 2);
  EXPECT_EQ(A.segmentsInUse(), 9u);
  // One batch touching both free runs from either side: R[0] and R[2]
  // around R[1], R[3] and R[5] around R[4]. All six runs must end up one
  // free run of 12 segments.
  std::vector<SegmentRun> Batch{
      {R[5], 2, 0}, {R[2], 2, 0}, {R[0], 2, 0}, {R[3], 2, 0}};
  A.freeRuns(Batch);
  EXPECT_EQ(A.segmentsInUse(), 1u);
  EXPECT_EQ(A.allocateRun(12, SpaceKind::Typed, 1), R[0]);
  EXPECT_TRUE(A.infoAt(Guard).inUse());
  // An empty batch changes nothing.
  std::vector<SegmentRun> Empty;
  A.freeRuns(Empty);
  EXPECT_EQ(A.segmentsInUse(), 13u);
}

class ArenaDeathTest : public ::testing::Test {
protected:
  ArenaDeathTest() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

TEST_F(ArenaDeathTest, DoubleFreeAsserts) {
  ASSERT_DEATH(
      {
        Arena A(4 * 1024 * 1024);
        uint32_t R1 = A.allocateRun(2, SpaceKind::Pair, 0);
        freeOne(A, R1, 2);
        freeOne(A, R1, 2);
      },
      "double free of segment");
  // The same run twice within one batch is a double free too.
  ASSERT_DEATH(
      {
        Arena A(4 * 1024 * 1024);
        uint32_t R1 = A.allocateRun(2, SpaceKind::Pair, 0);
        std::vector<SegmentRun> Batch(2, SegmentRun{R1, 2, 0});
        A.freeRuns(Batch);
      },
      "double free of segment");
}

//===----------------------------------------------------------------------===//
// Reservation recycling.
//===----------------------------------------------------------------------===//

/// First address of \p A's reservation.
uintptr_t reservationBase(const Arena &A) {
  // rootcheck:allow(segment-base) — these tests tell reservations apart
  // by address, which only segmentBase can express.
  return reinterpret_cast<uintptr_t>(A.segmentBase(0));
}

/// Fills all of \p A with \p Byte through one run covering it.
void fillArena(Arena &A, uint32_t Segments, int Byte) {
  uint32_t R = A.allocateRun(Segments, SpaceKind::Data, 0);
  // rootcheck:allow(segment-base) — writes the raw pages under test.
  std::memset(A.segmentBase(R), Byte, Segments * SegmentBytes);
}

TEST(ArenaRecyclingTest, SameSizeArenaReusesTheReservation) {
  uintptr_t First;
  {
    Arena A(4 * 1024 * 1024);
    First = reservationBase(A);
  }
  Arena B(4 * 1024 * 1024);
  EXPECT_EQ(reservationBase(B), First);
}

TEST(ArenaRecyclingTest, CacheHoldsNoMoreThanWereLiveAtOnce) {
  std::set<uintptr_t> First, Second;
  {
    Arena A(4 * 1024 * 1024), B(4 * 1024 * 1024), C(4 * 1024 * 1024);
    First = {reservationBase(A), reservationBase(B), reservationBase(C)};
  }
  {
    Arena A(4 * 1024 * 1024), B(4 * 1024 * 1024), C(4 * 1024 * 1024);
    Second = {reservationBase(A), reservationBase(B), reservationBase(C)};
  }
  EXPECT_EQ(Second, First) << "three arenas at a time need three reservations";
}

TEST(ArenaRecyclingTest, RecycledReservationStartsClean) {
  uintptr_t First;
  {
    // Runs with every kind of tag, one freed to leave a hole in the free
    // list; the rest are still in use at destruction, as a heap leaves
    // them.
    Arena A(4 * 1024 * 1024);
    First = reservationBase(A);
    uint32_t Scoped = A.allocateRun(3, SpaceKind::Typed, 2, /*ScopeDepth=*/1);
    A.infoAt(Scoped).Flags |= SegmentInfo::FlagFromSpace;
    A.allocateRun(2, SpaceKind::WeakPair, InFlightGeneration, 0,
                  SegmentInfo::FlagDonated);
    uint32_t Hole = A.allocateRun(4, SpaceKind::Data, 1);
    A.allocateRun(1, SpaceKind::Pair, 3);
    freeOne(A, Hole, 4);
  }
  Arena B(4 * 1024 * 1024);
  ASSERT_EQ(reservationBase(B), First);
  EXPECT_EQ(B.segmentsInUse(), 0u);
  for (uint32_t S = 0; S != B.totalSegments(); ++S) {
    const SegmentInfo &Info = B.infoAt(S);
    ASSERT_TRUE(Info.Flags == 0 && Info.Space == SpaceKind::Pair &&
                Info.Generation == 0 && Info.ScopeDepth == 0)
        << "segment " << S << " of a recycled reservation kept its previous "
        << "arena's tags";
  }
  // One free run covers the whole reservation.
  EXPECT_EQ(B.allocateRun(static_cast<uint32_t>(B.totalSegments()),
                          SpaceKind::Data, 0),
            0u);
}

TEST(ArenaRecyclingTest, ReleaseKeepsOnlyWhatTheFirstHalfReached) {
  constexpr uint32_t Wide = 64, Held = 8, Churn = 8, Spike = 32;
  const size_t PageBytes = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  uintptr_t Base;
  {
    Arena A(4 * 1024 * 1024);
    Base = reservationBase(A);
    fillArena(A, Wide, 0xA5);
  }
  {
    // The last heap holds Held segments and cycles a run above them ten
    // times; then, in the last quarter of its allocating, it reaches Spike
    // segments higher, as a shutdown's full collections do.
    Arena B(4 * 1024 * 1024);
    ASSERT_EQ(reservationBase(B), Base);
    fillArena(B, Held, 0x5A);
    for (int I = 0; I != 10; ++I) {
      fillArena(B, Churn, I);
      freeOne(B, Held, Churn);
    }
    fillArena(B, Churn, 0x3C);
    fillArena(B, Spike, 0xC3);
  }
  // mincore reads residency whatever the protection of the range.
  std::vector<unsigned char> Resident(Wide * SegmentBytes / PageBytes);
  ASSERT_EQ(::mincore(reinterpret_cast<void *>(Base), Wide * SegmentBytes,
                      Resident.data()),
            0);
  const size_t Kept = (Held + Churn) * SegmentBytes / PageBytes;
  for (size_t P = 0; P != Resident.size(); ++P) {
    if (P < Kept)
      EXPECT_TRUE(Resident[P] & 1)
          << "page " << P << " the last heap worked in was dropped";
    else
      EXPECT_FALSE(Resident[P] & 1)
          << "page " << P << " above what the last heap worked in is still "
          << "resident";
  }
}

TEST_F(ArenaDeathTest, CachedReservationFaults) {
  ASSERT_DEATH(
      {
        volatile uintptr_t *Stale;
        {
          Arena A(4 * 1024 * 1024);
          // rootcheck:allow(segment-base) — the stale pointer under test.
          Stale = A.segmentBase(A.allocateRun(1, SpaceKind::Pair, 0));
          *Stale = 1;
        }
        *Stale = 2;
      },
      "");
}

/// Leaves \p Count released reservations of \p Bytes with every word set
/// to FromSpacePoisonPattern, and returns their bases.
std::vector<uintptr_t> poisonReservations(size_t Bytes, unsigned Count) {
  std::vector<std::unique_ptr<Arena>> Live;
  std::vector<uintptr_t> Bases;
  for (unsigned I = 0; I != Count; ++I) {
    Live.push_back(std::make_unique<Arena>(Bytes));
    Arena &A = *Live.back();
    const uint32_t All = static_cast<uint32_t>(A.totalSegments());
    // rootcheck:allow(segment-base) — poisons the raw pages.
    std::fill_n(A.segmentBase(A.allocateRun(All, SpaceKind::Data, 0)),
                All * SegmentWords, FromSpacePoisonPattern);
    Bases.push_back(reservationBase(A));
  }
  return Bases;
}

/// True if heap object \p V lies in one of the reservations at \p Bases.
bool inReservations(Value V, const std::vector<uintptr_t> &Bases,
                    size_t Bytes) {
  return std::any_of(Bases.begin(), Bases.end(), [&](uintptr_t Base) {
    return V.heapAddress() - Base < Bytes;
  });
}

Value makeCountList(Heap &H, int N) {
  Root L(H, Value::nil());
  for (int I = N - 1; I >= 0; --I)
    L = H.cons(Value::fixnum(I), L);
  return L.get();
}

void expectCountList(Value L, int N) {
  for (int I = 0; I != N; ++I) {
    ASSERT_TRUE(L.isPair());
    EXPECT_EQ(pairCar(L).asFixnum(), I);
    L = pairCdr(L);
  }
  EXPECT_TRUE(L.isNil());
}

// Nothing in the heap may rely on mmap's zero fill: a recycled
// reservation holds whatever its last arena wrote there.
TEST(ArenaRecyclingTest, HeapsOverPoisonedReservationsCollectCorrectly) {
  const size_t HeapBytes = 8u * 1024 * 1024;
  const size_t ExchangeBytes = 4u * 1024 * 1024;
  const std::vector<uintptr_t> Private = poisonReservations(HeapBytes, 2);
  const std::vector<uintptr_t> Shared = poisonReservations(ExchangeBytes, 1);
  Arena X(ExchangeBytes);
  ASSERT_EQ(reservationBase(X), Shared[0]);
  HeapConfig C;
  C.ArenaBytes = HeapBytes;
  C.AutoCollect = false;
  C.Exchange = &X;
  Heap Sender(C), Receiver(C);

  // Minor and full collections.
  Root List(Receiver, makeCountList(Receiver, 2000));
  ASSERT_TRUE(inReservations(List.get(), Private, HeapBytes));
  Receiver.collectMinor();
  Receiver.verifyHeap();
  Receiver.collectFull();
  Receiver.verifyHeap();

  // Guardian delivery.
  Guardian G(Receiver);
  {
    Root Dropped(Receiver, Receiver.cons(Value::fixnum(7), Value::nil()));
    G.protect(Dropped.get());
  }
  Receiver.collectMinor();
  Root Saved(Receiver, G.retrieve());
  ASSERT_TRUE(Saved.get().isPair());
  EXPECT_EQ(pairCar(Saved.get()).asFixnum(), 7);
  Receiver.verifyHeap();

  // Weak-pair breaking.
  Root Weak(Receiver, Value::nil());
  {
    Root Target(Receiver, Receiver.cons(Value::fixnum(8), Value::nil()));
    Weak = Receiver.weakCons(Target, Value::nil());
  }
  Receiver.collectFull();
  EXPECT_TRUE(pairCar(Weak.get()).isFalse());
  Receiver.verifyHeap();

  // A scope close: one pair escapes, the rest die with the scope.
  Root Holder(Receiver, Receiver.cons(Value::nil(), Value::nil()));
  Receiver.openScope();
  (void)makeCountList(Receiver, 500);
  Receiver.setCar(Holder, Receiver.cons(Value::fixnum(9), Value::nil()));
  Receiver.closeScope();
  Receiver.verifyHeap();
  EXPECT_EQ(pairCar(pairCar(Holder.get())).asFixnum(), 9);

  // A donation adoption, through the poisoned exchange arena.
  Root Payload(Sender, makeCountList(Sender, 1000));
  DonatedGraph D = Sender.donateGraph(Payload.get());
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(D));
  ASSERT_TRUE(X.containsAddress(Adopted.get().heapAddress()));
  Receiver.verifyHeap();
  Receiver.collectFull();
  Receiver.verifyHeap();
  Sender.collectFull();
  Sender.verifyHeap();
  expectCountList(Adopted.get(), 1000);
  expectCountList(List.get(), 2000);
}

//===----------------------------------------------------------------------===//
// SpaceContext.
//===----------------------------------------------------------------------===//

TEST(SpaceContextTest, BumpWithinRun) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  uintptr_t *P1 = C.allocate(A, SpaceKind::Pair, 0, 2);
  uintptr_t *P2 = C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(P2, P1 + 2) << "bump allocation is contiguous";
  EXPECT_EQ(C.runs().size(), 1u);
  EXPECT_EQ(C.usedWords(A), 4u);
  EXPECT_EQ(C.bytesAllocated(), 32u);
}

TEST(SpaceContextTest, NewRunWhenFull) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  // Fill exactly one segment (512 words) with 2-word objects.
  for (size_t I = 0; I != SegmentWords / 2; ++I)
    C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(C.runs().size(), 1u);
  C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(C.runs().size(), 2u);
  EXPECT_EQ(C.usedWords(A), SegmentWords + 2);
}

TEST(SpaceContextTest, LargeObjectGetsDedicatedRun) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  C.allocate(A, SpaceKind::Typed, 0, 2);
  uintptr_t *Big = C.allocate(A, SpaceKind::Typed, 0, SegmentWords * 3);
  EXPECT_EQ(C.runs().size(), 2u);
  EXPECT_EQ(C.runs()[1].SegmentCount, 3u);
  // rootcheck:allow(segment-base) — asserts the bump pointer's raw
  // placement, which only segmentBase can express.
  EXPECT_EQ(Big, A.segmentBase(C.runs()[1].FirstSegment));
  // Subsequent small allocations start a fresh run (allocation order
  // across runs stays monotonic for the Cheney sweep).
  C.allocate(A, SpaceKind::Typed, 0, 2);
  EXPECT_EQ(C.runs().size(), 3u);
}

TEST(SpaceContextTest, DetachRunsResets) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  C.allocate(A, SpaceKind::Pair, 1, 2);
  C.allocate(A, SpaceKind::Pair, 1, 2);
  // Detaching appends to what the buffer already holds.
  std::vector<SegmentRun> Runs{{A.allocateRun(1, SpaceKind::Data, 1), 1, 2}};
  C.detachRuns(A, Runs);
  ASSERT_EQ(Runs.size(), 2u);
  EXPECT_EQ(Runs[1].UsedWords, 4u) << "current run sealed on detach";
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(C.usedWords(A), 0u);
  EXPECT_EQ(C.bytesAllocated(), 0u);
  // The emptied context opens a fresh run on its next allocation.
  C.allocate(A, SpaceKind::Pair, 1, 2);
  EXPECT_EQ(C.runs().size(), 1u);
  EXPECT_EQ(C.usedWords(A), 2u);
  C.detachRuns(A, Runs);
  A.freeRuns(Runs);
  EXPECT_EQ(A.segmentsInUse(), 0u);
}

} // namespace

//===- tests/gc/verifier_test.cpp - The heap verifier catches damage -----===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// The verifier is only trustworthy if it actually fires on corruption.
// Each death test injects one class of damage through raw (unbarriered)
// writes and checks that verifyHeap aborts with the right diagnostic.
//
//===----------------------------------------------------------------------===//

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

class VerifierDeathTest : public ::testing::Test {
protected:
  VerifierDeathTest() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(VerifierDeathTest, CleanHeapPasses) {
  Heap H(testConfig());
  Root L(H, H.makeList({Value::fixnum(1), Value::fixnum(2)}));
  H.collectFull();
  H.verifyHeap(); // Must not abort.
  SUCCEED();
}

TEST_F(VerifierDeathTest, DanglingPointerDetected) {
  ASSERT_DEATH(
      {
        Heap H(testConfig());
        Root Holder(H, H.cons(Value::nil(), Value::nil()));
        uintptr_t DeadBits;
        {
          Root Dead(H, H.cons(Value::fixnum(1), Value::nil()));
          DeadBits = Dead.get().bits();
        }
        H.collectFull(); // Dead is reclaimed; its address is stale.
        // Plant the stale pointer with a raw (unchecked) store.
        // rootcheck:allow(barrier-bypass) — deliberate corruption.
        Holder.get().pairCell()->Car = DeadBits;
        H.verifyHeap();
      },
      "reclaimed object");
}

TEST_F(VerifierDeathTest, MissingRememberedEntryDetected) {
  ASSERT_DEATH(
      {
        Heap H(testConfig());
        Root Old(H, H.cons(Value::nil(), Value::nil()));
        H.collect(1); // Old is now in generation 2.
        Root Young(H, H.cons(Value::fixnum(5), Value::nil()));
        // Bypass the write barrier: old-to-young pointer unrecorded.
        // rootcheck:allow(barrier-bypass) — that bypass is the test.
        Old.get().pairCell()->Car = Young.get().bits();
        H.verifyHeap();
      },
      "remembered set");
}

TEST_F(VerifierDeathTest, ForwardMarkerLeakDetected) {
  ASSERT_DEATH(
      {
        Heap H(testConfig());
        Root P(H, H.cons(Value::fixnum(1), Value::nil()));
        // rootcheck:allow(barrier-bypass) — deliberate corruption.
        P.get().pairCell()->Car = Value::forwardMarker().bits();
        H.verifyHeap();
      },
      "forward marker");
}

TEST_F(VerifierDeathTest, CorruptHeaderDetected) {
  ASSERT_DEATH(
      {
        Heap H(testConfig());
        Root V(H, H.makeVector(4, Value::nil()));
        // Smash the header kind byte to an invalid value.
        *V.get().objectHeader() = makeHeader(static_cast<ObjectKind>(0xEE),
                                             4);
        H.verifyHeap();
      },
      "");
}

TEST_F(VerifierDeathTest, WeakCarDanglingDetected) {
  ASSERT_DEATH(
      {
        Heap H(testConfig());
        Root W(H, H.weakCons(Value::nil(), Value::nil()));
        uintptr_t DeadBits;
        {
          Root Dead(H, H.cons(Value::fixnum(1), Value::nil()));
          DeadBits = Dead.get().bits();
        }
        H.collectFull();
        // rootcheck:allow(barrier-bypass) — deliberate corruption.
        W.get().pairCell()->Car = DeadBits;
        H.verifyHeap();
      },
      "weak car");
}

TEST_F(VerifierDeathTest, ScopeSegmentInExchangeArenaDetected) {
  // Every scope lives in the private arena: a scope-tagged segment in the
  // exchange arena is damage, even one carrying the donation flag.
  ASSERT_DEATH(
      {
        Arena X(16u * 1024 * 1024);
        HeapConfig C = testConfig();
        C.Exchange = &X;
        Heap H(C);
        H.openScope();
        const uint32_t Seg =
            X.allocateRun(1, SpaceKind::Pair, /*Generation=*/0,
                          /*ScopeDepth=*/1, SegmentInfo::FlagDonated);
        // rootcheck:allow(segment-base) — plants a cell by hand.
        uintptr_t *Cell = X.segmentBase(Seg);
        Cell[0] = Value::fixnum(1).bits();
        Cell[1] = Value::nil().bits();
        Root R(H, Value::pair(reinterpret_cast<PairCell *>(Cell)));
        H.verifyHeap();
      },
      "scope segment in the exchange arena");
}

} // namespace

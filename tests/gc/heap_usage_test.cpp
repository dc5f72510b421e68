//===- tests/gc/heap_usage_test.cpp - Generation usage snapshots ---------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
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

TEST(HeapUsageTest, FreshHeapIsEmpty) {
  Heap H(testConfig());
  for (unsigned G = 0; G != H.config().Generations; ++G) {
    EXPECT_EQ(H.generationUsage(G).SegmentCount, 0u);
    EXPECT_EQ(H.generationUsage(G).UsedBytes, 0u);
  }
}

TEST(HeapUsageTest, AllocationLandsInGenerationZero) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L.get());
  EXPECT_GE(H.generationUsage(0).UsedBytes, 1000u * 16);
  EXPECT_EQ(H.generationUsage(1).SegmentCount, 0u);
}

TEST(HeapUsageTest, PromotionMovesUsage) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L.get());
  size_t YoungBytes = H.generationUsage(0).UsedBytes;
  H.collectMinor();
  EXPECT_EQ(H.generationUsage(0).UsedBytes, 0u);
  EXPECT_GE(H.generationUsage(1).UsedBytes, 1000u * 16);
  EXPECT_LE(H.generationUsage(1).UsedBytes, YoungBytes);
  // Sum over generations matches liveBytes().
  size_t Total = 0;
  for (unsigned G = 0; G != H.config().Generations; ++G)
    Total += H.generationUsage(G).UsedBytes;
  EXPECT_EQ(Total, H.liveBytes());

  // Every survivor moves one generation up, all at once: collecting
  // generation 1 empties it into generation 2.
  const size_t Gen1Bytes = H.generationUsage(1).UsedBytes;
  H.collect(1);
  EXPECT_EQ(H.generationUsage(0).UsedBytes, 0u);
  EXPECT_EQ(H.generationUsage(1).UsedBytes, 0u);
  EXPECT_EQ(H.generationUsage(2).UsedBytes, Gen1Bytes);
}

TEST(HeapUsageTest, DeadDataDisappearsFromUsage) {
  Heap H(testConfig());
  for (int I = 0; I != 5000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  EXPECT_GT(H.generationUsage(0).UsedBytes, 5000u * 16 / 2);
  H.collectMinor();
  size_t Total = 0;
  for (unsigned G = 0; G != H.config().Generations; ++G)
    Total += H.generationUsage(G).UsedBytes;
  EXPECT_LT(Total, 4096u) << "dead pairs must not count as usage";
}

} // namespace

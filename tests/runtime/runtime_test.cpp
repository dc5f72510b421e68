//===- tests/runtime/runtime_test.cpp - Shard runtime --------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-shard value transfer (sharing, cycles, weakness, symbol
/// re-interning, non-transferable policy), mailbox semantics, the
/// shard runtime's message/shutdown protocol, and fleet-wide GC
/// aggregation.
///
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "telemetry/Aggregate.h"
#include "object/Layout.h"
#include "runtime/Mailbox.h"
#include "runtime/PinnedMessage.h"
#include "runtime/Shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

using namespace gengc;
using namespace gengc::runtime;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

//===----------------------------------------------------------------------===//
// PinnedMessage
//===----------------------------------------------------------------------===//

TEST(PinnedMessageTest, ImmediateRootNeedsNoNodes) {
  Heap H(testConfig());
  PinnedMessage Msg;
  ASSERT_TRUE(encodeMessage(H, Value::fixnum(1234), Msg));
  EXPECT_EQ(Msg.nodeCount(), 0u);
  Heap H2(testConfig());
  EXPECT_EQ(decodeMessage(H2, Msg).asFixnum(), 1234);
}

TEST(PinnedMessageTest, DeepGraphRoundTripsAcrossHeaps) {
  Heap H(testConfig());
  // A record holding: a shared string (referenced twice), a vector, a
  // box, a bytevector, a flonum, and a symbol.
  Root Shared(H, H.makeString("shared"));
  Root Vec(H, H.makeVector(3, Value::fixnum(0)));
  H.vectorSet(Vec, 0, Shared);
  H.vectorSet(Vec, 1, Shared); // Sharing: same object twice.
  H.vectorSet(Vec, 2, H.makeFlonum(2.5));
  Root BV(H, H.makeBytevector(4));
  std::memcpy(bytevectorData(BV.get()), "\x01\x02\x03\x04", 4);
  Root Rec(H, H.makeRecord(H.intern("msg-tag"), 4, Value::nil()));
  H.recordSet(Rec, 1, Vec);
  H.recordSet(Rec, 2, H.makeBox(Value::fixnum(77)));
  H.recordSet(Rec, 3, BV);

  PinnedMessage Msg;
  ASSERT_TRUE(encodeMessage(H, Rec.get(), Msg));

  Heap H2(testConfig());
  Root Out(H2, decodeMessage(H2, Msg));
  ASSERT_TRUE(isRecord(Out.get()));
  // Tag symbol re-interned into H2's table.
  EXPECT_EQ(objectField(Out.get(), 0).bits(), H2.intern("msg-tag").bits());
  Value OutVec = objectField(Out.get(), 1);
  ASSERT_TRUE(isVector(OutVec));
  Value S0 = objectField(OutVec, 0), S1 = objectField(OutVec, 1);
  ASSERT_TRUE(isString(S0));
  EXPECT_EQ(std::string(stringData(S0), objectLength(S0)), "shared");
  EXPECT_EQ(S0.bits(), S1.bits()) << "sharing preserved, not duplicated";
  EXPECT_DOUBLE_EQ(flonumValue(objectField(OutVec, 2)), 2.5);
  Value OutBox = objectField(Out.get(), 2);
  ASSERT_TRUE(isBox(OutBox));
  EXPECT_EQ(objectField(OutBox, 0).asFixnum(), 77);
  Value OutBV = objectField(Out.get(), 3);
  ASSERT_TRUE(isBytevector(OutBV));
  EXPECT_EQ(std::memcmp(bytevectorData(OutBV), "\x01\x02\x03\x04", 4), 0);
  // The copy survives collections in its new heap.
  H2.collectFull();
  EXPECT_TRUE(isRecord(Out.get()));
}

TEST(PinnedMessageTest, CyclesAndWeakPairsSurvive) {
  Heap H(testConfig());
  Root A(H, H.cons(Value::fixnum(1), Value::nil()));
  Root B(H, H.cons(Value::fixnum(2), A));
  H.setCdr(A, B); // Cycle: A -> B -> A.
  Root W(H, H.weakCons(A, B));
  Root Top(H, H.cons(W, A));

  PinnedMessage Msg;
  ASSERT_TRUE(encodeMessage(H, Top.get(), Msg));

  Heap H2(testConfig());
  Root Out(H2, decodeMessage(H2, Msg));
  Value OutW = pairCar(Out.get());
  Value OutA = pairCdr(Out.get());
  EXPECT_TRUE(H2.isWeakPair(OutW));
  EXPECT_FALSE(H2.isWeakPair(OutA));
  // The cycle: A -> B -> A, identity-preserving.
  Value OutB = pairCdr(OutA);
  EXPECT_EQ(pairCdr(OutB).bits(), OutA.bits());
  EXPECT_EQ(pairCar(OutA).asFixnum(), 1);
  EXPECT_EQ(pairCar(OutB).asFixnum(), 2);
  // Weak car points at the same copy of A.
  EXPECT_EQ(pairCar(OutW).bits(), OutA.bits());
  // And weakness is live in the new heap: cut the strong path to A
  // (B's cdr closes the cycle; W's cdr holds B), then the weak car
  // must break.
  Root JustW(H2, OutW);
  H2.setCdr(OutB, Value::nil());
  Out = Value::nil();
  H2.collectFull();
  EXPECT_TRUE(pairCar(JustW.get()).isFalse()) << "weak car broken in H2";
}

TEST(PinnedMessageTest, NonTransferablePolicy) {
  Heap H(testConfig());
  Root Clo(H, H.makeClosure(Value::nil(), Value::nil(), Value::nil()));
  Root Top(H, H.cons(Value::fixnum(1), Clo));

  PinnedMessage Msg;
  EXPECT_FALSE(encodeMessage(H, Top.get(), Msg, TransferPolicy::Reject));

  ASSERT_TRUE(encodeMessage(H, Top.get(), Msg, TransferPolicy::Sever));
  EXPECT_EQ(Msg.SeveredEdges, 1u);
  Heap H2(testConfig());
  Root Out(H2, decodeMessage(H2, Msg));
  EXPECT_EQ(pairCar(Out.get()).asFixnum(), 1);
  EXPECT_TRUE(pairCdr(Out.get()).isFalse()) << "closure severed to #f";
}

//===----------------------------------------------------------------------===//
// Mailbox
//===----------------------------------------------------------------------===//

PinnedMessage fixnumMessage(Heap &H, intptr_t N) {
  PinnedMessage Msg;
  EXPECT_TRUE(encodeMessage(H, Value::fixnum(N), Msg));
  return Msg;
}

TEST(MailboxTest, FifoAndCapacity) {
  Heap H(testConfig());
  Mailbox Box(2);
  EXPECT_TRUE(Box.trySend(fixnumMessage(H, 1)));
  EXPECT_TRUE(Box.trySend(fixnumMessage(H, 2)));
  EXPECT_FALSE(Box.trySend(fixnumMessage(H, 3))) << "full";
  EXPECT_EQ(Box.stats().RejectedFull, 1u);
  PinnedMessage Out;
  ASSERT_TRUE(Box.tryReceive(Out));
  EXPECT_EQ(decodeMessage(H, Out).asFixnum(), 1);
  ASSERT_TRUE(Box.tryReceive(Out));
  EXPECT_EQ(decodeMessage(H, Out).asFixnum(), 2);
  EXPECT_FALSE(Box.tryReceive(Out));
  EXPECT_EQ(Box.stats().MaxDepth, 2u);
}

TEST(MailboxTest, CloseRefusesSendsButDrainsQueue) {
  Heap H(testConfig());
  Mailbox Box(8);
  EXPECT_TRUE(Box.send(fixnumMessage(H, 1)));
  Box.close();
  EXPECT_FALSE(Box.send(fixnumMessage(H, 2)));
  EXPECT_FALSE(Box.trySend(fixnumMessage(H, 3)));
  EXPECT_EQ(Box.stats().RejectedClosed, 2u);
  // Queued message still receivable after close (shutdown drain).
  PinnedMessage Out;
  ASSERT_TRUE(Box.waitNonEmpty());
  ASSERT_TRUE(Box.tryReceive(Out));
  EXPECT_EQ(decodeMessage(H, Out).asFixnum(), 1);
  EXPECT_FALSE(Box.waitNonEmpty()) << "closed and drained";
}

//===----------------------------------------------------------------------===//
// ShardRuntime
//===----------------------------------------------------------------------===//

/// Receiver-side state: sums fixnum payloads from other shards.
struct SummingLocal : ShardLocal {
  std::atomic<intptr_t> *Sum;
  std::atomic<unsigned> *Count;
  explicit SummingLocal(std::atomic<intptr_t> *Sum,
                        std::atomic<unsigned> *Count)
      : Sum(Sum), Count(Count) {}
  void onMessage(Shard &, Value V) override {
    if (V.isFixnum()) {
      *Sum += V.asFixnum();
      ++*Count;
    } else if (V.isPair()) {
      *Sum += pairCar(V).asFixnum() + pairCdr(V).asFixnum();
      ++*Count;
    }
  }
};

TEST(ShardRuntimeTest, CrossShardMessagesArriveDecoded) {
  std::atomic<intptr_t> Sum{0};
  std::atomic<unsigned> Count{0};
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = testConfig();
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<SummingLocal>(&Sum, &Count);
  });

  RT.shard(0).run([&](Shard &S) {
    for (intptr_t I = 1; I <= 10; ++I) {
      Root P(S.heap(), S.heap().cons(Value::fixnum(I), Value::fixnum(100)));
      ASSERT_TRUE(S.sendValue(RT.shard(1), P.get()));
    }
  });
  RT.shutdown(); // Drains shard 1's inbox before teardown.

  EXPECT_EQ(Count.load(), 10u);
  EXPECT_EQ(Sum.load(), 55 + 10 * 100);
  const auto &Reports = RT.reports();
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(Reports[0].ExportsWatched, 10u);
  EXPECT_EQ(Reports[1].MessagesReceived, 10u);
}

TEST(ShardRuntimeTest, MessagesQueuedAtShutdownAreNotLost) {
  std::atomic<intptr_t> Sum{0};
  std::atomic<unsigned> Count{0};
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 3;
  Cfg.HeapCfg = testConfig();
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<SummingLocal>(&Sum, &Count);
  });
  // Every shard sends to every other shard, then we shut down at once:
  // queued-but-unprocessed messages must still be delivered.
  for (size_t From = 0; From != 3; ++From)
    RT.shard(From).run([&](Shard &S) {
      for (size_t To = 0; To != 3; ++To) {
        if (To == S.id())
          continue;
        ASSERT_TRUE(S.sendValue(RT.shard(To), Value::fixnum(1)));
      }
    });
  RT.shutdown();
  EXPECT_EQ(Count.load(), 6u) << "3 shards x 2 peers";
  EXPECT_EQ(Sum.load(), 6);
}

/// A guarded-resource shard: every session object is guardian-
/// protected and then dropped, so the guardian is the only finder. No
/// drain happens while running — onShutdown must account for all of
/// them before the heap dies.
struct GuardedLocal : ShardLocal {
  Heap &H;
  Guardian G;
  /// Read at submit time: the queue is registered after the runtime
  /// (and hence this local) is constructed.
  const FinalizationExecutor::QueueId *Queue;
  std::atomic<uint64_t> *Created;
  uint64_t LocalCreated = 0;

  GuardedLocal(Shard &S, const FinalizationExecutor::QueueId *Queue,
               std::atomic<uint64_t> *Created)
      : H(S.heap()), G(H), Queue(Queue), Created(Created) {}

  void churn(unsigned N) {
    Root Tag(H, H.intern("session"));
    for (unsigned I = 0; I != N; ++I) {
      Root R(H, H.makeRecord(Tag, 2, Value::fixnum(++LocalCreated)));
      G.protect(R);
      ++*Created;
      // Dropped immediately: the guardian is the only finder.
    }
  }

  void onShutdown(Shard &S) override {
    H.collectFull();
    H.collectFull();
    G.drain([&](Value Obj) {
      ASSERT_TRUE(S.executor().submit(*Queue, objectField(Obj, 1).asFixnum()));
    });
  }
};

TEST(ShardRuntimeTest, ShutdownDrainsGuardiansBeforeTeardown) {
  std::atomic<uint64_t> Created{0}, Finalized{0};
  FinalizationExecutor::QueueId Queue = 0;
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = testConfig();
  ShardRuntime RT(Cfg, [&](Shard &S) {
    return std::make_unique<GuardedLocal>(S, &Queue, &Created);
  });
  Queue = RT.executor().registerQueue(
      "sessions", [&](const FinalizationTicket &) {
        ++Finalized;
        return true;
      });
  for (size_t I = 0; I != 2; ++I)
    RT.shard(I).run([&](Shard &S) {
      static_cast<GuardedLocal *>(S.local())->churn(100);
    });
  // Nothing has been drained yet; shutdown's onShutdown hook (final
  // collections + guardian drain + ticket submission) plus the
  // executor drain must deliver every single one.
  RT.shutdown();
  EXPECT_EQ(Created.load(), 200u);
  EXPECT_EQ(Finalized.load(), Created.load());
  EXPECT_TRUE(RT.executor().quarantined().empty());
}

// Shards build and tear down their heaps on their own threads, all
// through one process-wide cache of arena reservations: every heap must
// get a reservation no other live heap holds, reset for it.
TEST(ShardRuntimeTest, RuntimesComeAndGoOnFourThreadsAtOnce) {
  std::mutex LiveLock;
  std::set<uintptr_t> LiveBases;
  std::atomic<unsigned> Shared{0}, Delivered{0}, Intact{0};
  /// Holds its heap's reservation base in LiveBases while the heap lives.
  struct LiveLocal : ShardLocal {
    std::mutex &Lock;
    std::set<uintptr_t> &Bases;
    uintptr_t Base;
    LiveLocal(std::mutex &Lock, std::set<uintptr_t> &Bases, uintptr_t Base)
        : Lock(Lock), Bases(Bases), Base(Base) {}
    ~LiveLocal() override {
      std::lock_guard<std::mutex> Guard(Lock);
      Bases.erase(Base);
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != 50; ++I) {
        ShardRuntime::Config Cfg;
        Cfg.HeapCfg = testConfig();
        Cfg.HeapCfg.ArenaBytes = 4u * 1024 * 1024;
        ShardRuntime RT(Cfg, [&](Shard &S) {
          // rootcheck:allow(segment-base) — tells reservations apart.
          const auto Base = reinterpret_cast<uintptr_t>(
              S.heap().arena().segmentBase(0));
          std::lock_guard<std::mutex> Guard(LiveLock);
          if (!LiveBases.insert(Base).second)
            ++Shared;
          return std::make_unique<LiveLocal>(LiveLock, LiveBases, Base);
        });
        RT.shard(0).run([&, T](Shard &S) {
          Heap &H = S.heap();
          Guardian G(H);
          Root List(H, Value::nil());
          for (int K = 0; K != 500; ++K)
            List = H.cons(Value::fixnum(T * 1000 + K), List);
          {
            Root Dropped(H, H.cons(Value::fixnum(T), Value::nil()));
            G.protect(Dropped.get());
          }
          H.collectMinor();
          H.collectFull();
          H.verifyHeap();
          if (G.retrieve().isPair())
            ++Delivered;
          int K = 499;
          Value P = List.get();
          while (P.isPair() && pairCar(P).asFixnum() == T * 1000 + K) {
            P = pairCdr(P);
            --K;
          }
          if (P.isNil() && K == -1)
            ++Intact;
        });
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Shared.load(), 0u) << "two live heaps held one reservation";
  EXPECT_EQ(Delivered.load(), 200u);
  EXPECT_EQ(Intact.load(), 200u);
  EXPECT_TRUE(LiveBases.empty());
}

TEST(ShardRuntimeTest, FleetStatsAggregateAcrossShards) {
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 4;
  Cfg.HeapCfg = testConfig();
  ShardRuntime RT(Cfg, nullptr);
  for (size_t I = 0; I != 4; ++I)
    RT.shard(I).run([](Shard &S) {
      Root Keep(S.heap(), Value::nil());
      for (int K = 0; K != 1000; ++K)
        Keep = S.heap().cons(Value::fixnum(K), Keep.get());
      S.heap().collectFull();
      S.heap().collectFull();
    });
  RT.shutdown();
  FleetGcStats Fleet = RT.fleetGcStats();
  EXPECT_EQ(Fleet.Shards, 4u);
  EXPECT_GE(Fleet.Combined.Collections, 8u);
  EXPECT_GT(Fleet.TotalBytesAllocated, 4u * 1000u * 16u);
  EXPECT_GT(Fleet.PauseMaxNanos, 0u);
  EXPECT_GE(Fleet.PauseMaxNanos, Fleet.PauseP50Nanos);
  uint64_t SumCollections = 0;
  for (const auto &R : RT.reports())
    SumCollections += R.Gc.Totals.Collections;
  EXPECT_EQ(SumCollections, Fleet.Combined.Collections);
}

/// Receiver that records the trace context onMessage sees and submits
/// a finalization ticket from inside it, so the ticket inherits the
/// message's trace id.
struct TracingLocal : ShardLocal {
  const FinalizationExecutor::QueueId *Queue;
  std::atomic<uint64_t> *SeenTraceId;
  TracingLocal(const FinalizationExecutor::QueueId *Queue,
               std::atomic<uint64_t> *SeenTraceId)
      : Queue(Queue), SeenTraceId(SeenTraceId) {}
  void onMessage(Shard &S, Value V) override {
    SeenTraceId->store(S.currentTraceId());
    ASSERT_TRUE(S.submitTicket(*Queue, V.asFixnum()));
  }
};

TEST(ShardRuntimeTest, TraceIdsPropagateAcrossShardsAndTickets) {
  std::atomic<uint64_t> SeenTraceId{0};
  std::atomic<unsigned> Finalized{0};
  FinalizationExecutor::QueueId Queue = 0;
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = testConfig();
  Cfg.HeapCfg.GcTrace = true;
  Cfg.ExecutorCfg.Tracing = true;
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<TracingLocal>(&Queue, &SeenTraceId);
  });
  Queue = RT.executor().registerQueue(
      "traced", [&](const FinalizationTicket &) {
        ++Finalized;
        return true;
      });
  RT.shard(0).run([&](Shard &S) {
    ASSERT_TRUE(S.sendValue(RT.shard(1), Value::fixnum(7)));
  });
  RT.shutdown();
  ASSERT_EQ(Finalized.load(), 1u);

  // The receive installed the sender's trace id: nonzero, and its high
  // word recovers the originating shard (shard 0 stamps (0+1) << 32).
  const uint64_t Trace = SeenTraceId.load();
  ASSERT_NE(Trace, 0u);
  EXPECT_EQ(Trace >> 32, 1u);

  // The ticket submitted inside onMessage carried the trace id into
  // the executor's finalize span.
  const std::vector<FinalizeSpan> Spans = RT.executor().finalizeSpans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].TraceId, Trace);
  ASSERT_NE(Spans[0].SpanId, 0u);
  // The submit span was stamped by shard 1 (the submitting shard).
  EXPECT_EQ(Spans[0].SpanId >> 32, 2u);
  EXPECT_LE(Spans[0].SubmitNanos, Spans[0].StartNanos);

  // The merged fleet trace round-trips and draws the causal arrows:
  // msg-send + ticket-submit flow starts, msg-recv + finalize ends.
  const std::string Path = "/tmp/gengc_runtime_fleet_trace_test.json";
  ASSERT_TRUE(RT.exportFleetTrace(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Trace1 = Buf.str();
  std::remove(Path.c_str());
  auto CountOf = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t At = Trace1.find(Needle); At != std::string::npos;
         At = Trace1.find(Needle, At + Needle.size()))
      ++N;
    return N;
  };
  EXPECT_NE(Trace1.find("\"msg-send\""), std::string::npos);
  EXPECT_NE(Trace1.find("\"msg-recv\""), std::string::npos);
  EXPECT_NE(Trace1.find("\"ticket-submit\""), std::string::npos);
  EXPECT_NE(Trace1.find("\"name\":\"finalize\""), std::string::npos);
  EXPECT_EQ(CountOf("\"ph\":\"s\""), 2u) << "send + submit flow starts";
  EXPECT_EQ(CountOf("\"ph\":\"f\""), 2u) << "recv + finalize flow ends";
  EXPECT_NE(Trace1.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(Trace1.find("\"shard-1\""), std::string::npos);
  EXPECT_NE(Trace1.find("\"finalization-executor\""), std::string::npos);
  // Structural sanity: balanced braces outside strings.
  int Depth = 0;
  bool InString = false, Escaped = false;
  for (char Ch : Trace1) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (Ch == '\\')
      Escaped = InString;
    else if (Ch == '"')
      InString = !InString;
    else if (!InString && Ch == '{')
      ++Depth;
    else if (!InString && Ch == '}')
      --Depth;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_FALSE(InString);
}

TEST(AggregateTest, MergeCoversEveryTotalsField) {
  // The merge() half of the telemetry accumulate-coverage test: totals
  // merged across shards fold every counter-table row by its merge
  // kind. Sum rows double; Max rows hold, even when a smaller (empty)
  // shard merges in after them.
  constexpr bool IsMaxSum = false, IsMaxMax = true; // IsMax##Merge per row.
  GcStats S; // Distinct values, so a fold of the wrong member shows.
  S.CollectedGeneration = 1; // == oldest below: counts as a full GC.
  uint64_t Next = 2;
#define GENGC_X(Name, ...) S.Name = Next++;
  GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  for (unsigned I = 0; I != NumGcPhases; ++I)
    S.Phases.Nanos[I] = 100 + I;
  ScopeCloseStats C;
  C.Depth = 2;
  C.copyFrom(S);

  GcTotals One, Two;
  One.accumulate(S, /*OldestGeneration=*/1);
  for (const GcTotals &From : {One, One, GcTotals()})
    Two.merge(From);
  ScopeTotals SOne, STwo;
  SOne.ScopesOpened = 1; // Opens are counted by the heap, not by a fold.
  SOne.MaxDepth = 2;
  SOne.accumulate(C);
  for (const ScopeTotals &From : {SOne, SOne, ScopeTotals()})
    STwo.merge(From);

#define GENGC_X(Name, Merge, K, Scope, Model, SN, STN)                         \
  EXPECT_EQ(Two.Name, IsMax##Merge ? One.Name : 2 * One.Name) << #Name;        \
  GENGC_COUNTER_IF_##Scope(                                                    \
      EXPECT_EQ(STwo.GENGC_SCOPE_TOTAL_NAME(Name, SN, STN),                    \
                IsMax##Merge ? SOne.GENGC_SCOPE_TOTAL_NAME(Name, SN, STN)      \
                             : 2 * SOne.GENGC_SCOPE_TOTAL_NAME(Name, SN, STN)) \
      << #Name;)
  GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  for (unsigned I = 0; I != NumGcPhases; ++I)
    EXPECT_EQ(Two.Phases.Nanos[I], 2 * One.Phases.Nanos[I]) << "phase " << I;
  EXPECT_EQ(Two.Collections, 2 * One.Collections);
  EXPECT_EQ(Two.FullCollections, 2 * One.FullCollections);
  EXPECT_EQ(STwo.ScopesOpened, 2u);
  EXPECT_EQ(STwo.ScopesClosed, 2u);
  EXPECT_EQ(STwo.MaxDepth, 2u);
  EXPECT_EQ(STwo.BytesReclaimed, 2 * SOne.BytesReclaimed);
}

TEST(AggregateTest, PercentilesOverMergedDistribution) {
  std::vector<ShardGcSample> Samples(2);
  Samples[0].ShardId = 0;
  for (uint64_t P : {100, 200, 300})
    Samples[0].Pauses.record(P);
  Samples[0].BytesAllocated = 1000;
  Samples[1].ShardId = 1;
  for (uint64_t P : {400, 500})
    Samples[1].Pauses.record(P);
  Samples[1].BytesAllocated = 2000;
  FleetGcStats Fleet = aggregateShards(Samples);
  EXPECT_EQ(Fleet.Shards, 2u);
  EXPECT_EQ(Fleet.TotalBytesAllocated, 3000u);
  EXPECT_EQ(Fleet.Pauses.count(), 5u);
  EXPECT_EQ(Fleet.PauseMaxNanos, 500u);
  // Nearest-rank 3 of 5 lands on 300, reported as its bucket's upper
  // bound (300 sits in the 8-wide bucket [296, 303]).
  EXPECT_EQ(Fleet.PauseP50Nanos, 303u);
  // Ranks 5: the histogram clamps the top bucket to the exact max.
  EXPECT_EQ(Fleet.PauseP99Nanos, 500u);
  EXPECT_EQ(Fleet.PauseP999Nanos, 500u);
  std::string Summary = formatFleetSummary(Samples, Fleet);
  EXPECT_NE(Summary.find("fleet (2 shards)"), std::string::npos);
}

} // namespace

//===- tests/runtime/executor_test.cpp - FinalizationExecutor ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor's contract, tested without any heap: per-queue FIFO
/// matching ticket submission (i.e. guardian tconc) order, bounded
/// batches, retry with backoff then quarantine (never a silent drop),
/// backpressure, and drain-exactly-once shutdown.
///
//===----------------------------------------------------------------------===//

#include "runtime/FinalizationExecutor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace gengc::runtime;

namespace {

/// Collects executed payloads under a lock (actions run on the worker
/// thread; assertions happen after drainAndStop, which joins it).
struct Recorder {
  std::mutex M;
  std::vector<intptr_t> Order;

  bool record(intptr_t P) {
    std::lock_guard<std::mutex> Lock(M);
    Order.push_back(P);
    return true;
  }
  std::vector<intptr_t> order() {
    std::lock_guard<std::mutex> Lock(M);
    return Order;
  }
};

FinalizationExecutor::Config fastConfig() {
  FinalizationExecutor::Config C;
  C.BaseBackoff = std::chrono::microseconds(100);
  return C;
}

TEST(ExecutorTest, PerQueueFifoMatchesSubmissionOrder) {
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("fifo", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 500; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  std::vector<intptr_t> Got = Rec.order();
  ASSERT_EQ(Got.size(), 500u);
  for (intptr_t I = 0; I != 500; ++I)
    EXPECT_EQ(Got[static_cast<size_t>(I)], I) << "FIFO broken at " << I;
  EXPECT_EQ(Exec.stats().Executed, 500u);
  EXPECT_TRUE(Exec.quarantined().empty());
}

TEST(ExecutorTest, QueuesAreIndependentAndBatched) {
  FinalizationExecutor::Config C = fastConfig();
  C.BatchSize = 4;
  Recorder RecA, RecB;
  FinalizationExecutor Exec(C);
  auto QA = Exec.registerQueue("a", [&](const FinalizationTicket &T) {
    return RecA.record(T.Payload);
  });
  auto QB = Exec.registerQueue("b", [&](const FinalizationTicket &T) {
    return RecB.record(T.Payload);
  });
  for (intptr_t I = 0; I != 100; ++I) {
    ASSERT_TRUE(Exec.submit(QA, I));
    ASSERT_TRUE(Exec.submit(QB, 1000 + I));
  }
  Exec.drainAndStop();
  std::vector<intptr_t> A = RecA.order(), B = RecB.order();
  ASSERT_EQ(A.size(), 100u);
  ASSERT_EQ(B.size(), 100u);
  for (intptr_t I = 0; I != 100; ++I) {
    EXPECT_EQ(A[static_cast<size_t>(I)], I);
    EXPECT_EQ(B[static_cast<size_t>(I)], 1000 + I);
  }
}

TEST(ExecutorTest, FailingTicketRetriedWithBackoffThenQuarantined) {
  FinalizationExecutor::Config C = fastConfig();
  C.MaxRetries = 3;
  std::atomic<unsigned> Attempts{0};
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("failing", [&](const FinalizationTicket &) {
    ++Attempts;
    return false; // Always fails.
  });
  ASSERT_TRUE(Exec.submit(Q, 42, 7));
  Exec.drainAndStop();

  EXPECT_EQ(Attempts.load(), 3u) << "attempted exactly MaxRetries times";
  auto Quarantined = Exec.quarantined();
  ASSERT_EQ(Quarantined.size(), 1u) << "never dropped silently";
  EXPECT_EQ(Quarantined[0].Queue, Q);
  EXPECT_EQ(Quarantined[0].Ticket.Payload, 42);
  EXPECT_EQ(Quarantined[0].Ticket.Aux, 7);
  EXPECT_EQ(Quarantined[0].Attempts, 3u);
  auto S = Exec.stats();
  EXPECT_EQ(S.Failed, 3u);
  EXPECT_EQ(S.Retried, 2u);
  EXPECT_EQ(S.Quarantined, 1u);
  EXPECT_EQ(S.Executed, 0u);
  EXPECT_EQ(Exec.queueName(Quarantined[0].Queue), "failing");
}

TEST(ExecutorTest, ThrowingActionIsAFailure) {
  FinalizationExecutor::Config C = fastConfig();
  C.MaxRetries = 2;
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("throwing", [](const FinalizationTicket &) -> bool {
    throw std::runtime_error("finalizer exploded");
  });
  ASSERT_TRUE(Exec.submit(Q, 1));
  Exec.drainAndStop();
  EXPECT_EQ(Exec.quarantined().size(), 1u);
  EXPECT_EQ(Exec.stats().Failed, 2u);
}

TEST(ExecutorTest, TransientFailureRecoversAndKeepsFifo) {
  // Payload 5 fails twice then succeeds; everything stays in order
  // because the retrying head blocks its queue.
  FinalizationExecutor::Config C = fastConfig();
  C.MaxRetries = 5;
  Recorder Rec;
  std::atomic<unsigned> Failures{0};
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("transient", [&](const FinalizationTicket &T) {
    if (T.Payload == 5 && Failures.load() < 2) {
      ++Failures;
      return false;
    }
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 10; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  std::vector<intptr_t> Got = Rec.order();
  ASSERT_EQ(Got.size(), 10u);
  for (intptr_t I = 0; I != 10; ++I)
    EXPECT_EQ(Got[static_cast<size_t>(I)], I);
  EXPECT_EQ(Exec.stats().Retried, 2u);
  EXPECT_TRUE(Exec.quarantined().empty());
}

TEST(ExecutorTest, BackpressureBlocksAndRecovers) {
  FinalizationExecutor::Config C = fastConfig();
  C.HighWatermark = 8;
  std::atomic<bool> Gate{false};
  std::atomic<unsigned> Ran{0};
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("slow", [&](const FinalizationTicket &) {
    while (!Gate.load())
      std::this_thread::yield();
    ++Ran;
    return true;
  });
  // Fill past the watermark from another thread; the submitter must
  // block until the gate opens and the worker makes space.
  std::thread Producer([&] {
    for (intptr_t I = 0; I != 32; ++I)
      ASSERT_TRUE(Exec.submit(Q, I));
  });
  // Give the producer time to hit the watermark, then open the gate.
  while (Exec.pending() < C.HighWatermark)
    std::this_thread::yield();
  Gate = true;
  Producer.join();
  Exec.drainAndStop();
  EXPECT_EQ(Ran.load(), 32u);
  EXPECT_GE(Exec.stats().BackpressureWaits, 1u);
  EXPECT_LE(Exec.stats().MaxPending, 8u + 1u);
}

TEST(ExecutorTest, DrainExecutesEverythingExactlyOnce) {
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("drain", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 200; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  // Exactly once: no duplicates, no losses.
  std::vector<intptr_t> Got = Rec.order();
  std::set<intptr_t> Unique(Got.begin(), Got.end());
  EXPECT_EQ(Got.size(), 200u);
  EXPECT_EQ(Unique.size(), 200u);
  EXPECT_EQ(Exec.pending(), 0u);
  // Idempotent; a second drain is a no-op, and late submits are refused.
  Exec.drainAndStop();
  EXPECT_FALSE(Exec.submit(Q, 999));
  EXPECT_EQ(Rec.order().size(), 200u);
}

TEST(ExecutorTest, DrainIgnoresBackoffDelaysButHonorsRetryCap) {
  // A ticket sitting in a long backoff must still be resolved by
  // drainAndStop (to quarantine here), not waited on or dropped.
  FinalizationExecutor::Config C;
  C.BaseBackoff = std::chrono::seconds(60);
  C.MaxRetries = 3;
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("stuck", [](const FinalizationTicket &) {
    return false;
  });
  ASSERT_TRUE(Exec.submit(Q, 1));
  auto Start = std::chrono::steady_clock::now();
  Exec.drainAndStop();
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_LT(Elapsed, std::chrono::seconds(10))
      << "drain must not serve the 60s backoff";
  EXPECT_EQ(Exec.quarantined().size(), 1u);
}

TEST(ExecutorTest, WaitIdleSeesCompletion) {
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("idle", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 50; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.waitIdle();
  EXPECT_EQ(Exec.pending(), 0u);
  EXPECT_EQ(Rec.order().size(), 50u);
  Exec.drainAndStop();
}

TEST(ExecutorTest, LatencyRecordersCoverEveryTicket) {
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("lat", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 200; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  const FinalizationExecutor::Stats &S = Exec.stats();
  // One wait sample and one run sample per executed attempt.
  EXPECT_EQ(S.WaitNanos.count(), S.Executed + S.Retried);
  EXPECT_EQ(S.RunNanos.count(), S.Executed + S.Retried);
  EXPECT_EQ(S.Executed, 200u);
  // Percentiles are readable and ordered; max bounds p99.
  EXPECT_LE(S.WaitNanos.p50(), S.WaitNanos.p99());
  EXPECT_LE(S.WaitNanos.p99(), S.WaitNanos.maxNanos());
  EXPECT_LE(S.RunNanos.p99(), S.RunNanos.maxNanos());
  // The queue-depth high-water mark saw at least one pending ticket
  // and never exceeded what was submitted.
  EXPECT_GE(S.MaxPending, 1u);
  EXPECT_LE(S.MaxPending, 200u);
}

TEST(ExecutorTest, StatsAreStableAfterDrain) {
  // After drainAndStop joins the worker, every counter and recorder
  // must be quiescent: two reads observe identical values, and the
  // ledger balances (submitted = executed + quarantined attempts).
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("stable", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 100; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  const uint64_t Executed = Exec.stats().Executed;
  const uint64_t Waits = Exec.stats().WaitNanos.count();
  const uint64_t WaitP99 = Exec.stats().WaitNanos.p99();
  const uint64_t RunTotal = Exec.stats().RunNanos.totalNanos();
  const size_t HighWater = Exec.stats().MaxPending;
  EXPECT_EQ(Exec.pending(), 0u);
  EXPECT_EQ(Executed, 100u);
  // Re-read: nothing moves once drained.
  EXPECT_EQ(Exec.stats().Executed, Executed);
  EXPECT_EQ(Exec.stats().WaitNanos.count(), Waits);
  EXPECT_EQ(Exec.stats().WaitNanos.p99(), WaitP99);
  EXPECT_EQ(Exec.stats().RunNanos.totalNanos(), RunTotal);
  EXPECT_EQ(Exec.stats().MaxPending, HighWater);
}

TEST(ExecutorTest, TracingRecordsFinalizeSpansOnTheFleetClock) {
  Recorder Rec;
  FinalizationExecutor::Config C = fastConfig();
  C.Tracing = true;
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("traced", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  const uint64_t Trace = 0x100000001ull, Span = 0x100000002ull;
  ASSERT_TRUE(Exec.submit(Q, 1, 0, Trace, Span));
  ASSERT_TRUE(Exec.submit(Q, 2)); // untraced ticket still gets a span
  Exec.drainAndStop();
  const std::vector<gengc::FinalizeSpan> Spans = Exec.finalizeSpans();
  ASSERT_EQ(Spans.size(), 2u);
  const gengc::FinalizeSpan &F = Spans[0];
  EXPECT_EQ(F.TraceId, Trace);
  EXPECT_EQ(F.SpanId, Span);
  EXPECT_TRUE(F.Ok);
  // Timestamps are ordered on the executor's epoch clock.
  EXPECT_LE(F.SubmitNanos, F.StartNanos);
  EXPECT_LE(F.StartNanos, F.EndNanos);
  EXPECT_EQ(Spans[1].SpanId, 0u);
}

TEST(ExecutorTest, TracingDisabledKeepsNoSpans) {
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig()); // Tracing defaults to off
  auto Q = Exec.registerQueue("off", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  for (intptr_t I = 0; I != 50; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Exec.drainAndStop();
  EXPECT_TRUE(Exec.finalizeSpans().empty());
  EXPECT_EQ(Exec.stats().Executed, 50u); // latency stats still recorded
  EXPECT_EQ(Exec.stats().WaitNanos.count(), 50u);
}

TEST(ExecutorTest, FailureMidBatchKeepsQueueFifo) {
  // Ticket 5 fails once, the 5th of a 16-ticket batch. The batch stops
  // there: 6..16 go back behind 5, ahead of 17..20 (submitted while the
  // batch ran), and wait out 5's backoff.
  FinalizationExecutor::Config C = fastConfig();
  C.BatchSize = 16;
  Recorder Rec;
  std::atomic<intptr_t> Running{-1};
  std::atomic<intptr_t> Released{-1};
  std::atomic<bool> Failed{false};
  FinalizationExecutor Exec(C);
  auto Q = Exec.registerQueue("mid", [&](const FinalizationTicket &T) {
    Running = T.Payload;
    while (T.Payload <= 1 && Released.load() < T.Payload)
      std::this_thread::yield();
    if (T.Payload == 5 && !Failed.exchange(true))
      return false;
    return Rec.record(T.Payload);
  });
  // Ticket 0 holds the worker while 1..16 queue up, so the next claim
  // takes exactly those sixteen; ticket 1 holds it while 17..20 queue.
  ASSERT_TRUE(Exec.submit(Q, 0));
  while (Running.load() != 0)
    std::this_thread::yield();
  for (intptr_t I = 1; I <= 16; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Released = 0;
  while (Running.load() != 1)
    std::this_thread::yield();
  for (intptr_t I = 17; I <= 20; ++I)
    ASSERT_TRUE(Exec.submit(Q, I));
  Released = 1;
  Exec.waitIdle();
  std::vector<intptr_t> Got = Rec.order();
  ASSERT_EQ(Got.size(), 21u);
  for (intptr_t I = 0; I <= 20; ++I)
    EXPECT_EQ(Got[static_cast<size_t>(I)], I) << "FIFO broken at " << I;
  auto S = Exec.stats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Retried, 1u);
  EXPECT_EQ(S.Executed, 21u);
  EXPECT_EQ(S.WaitNanos.count(), 22u) << "one sample per attempt";
  EXPECT_TRUE(Exec.quarantined().empty());
  Exec.drainAndStop();
}

TEST(ExecutorTest, WaitIdleWaitsForClaimedTickets) {
  // A claimed ticket has left its queue but not finished: it is still
  // pending, so waitIdle must not return while it runs.
  std::atomic<bool> Started{false};
  std::atomic<bool> Finished{false};
  FinalizationExecutor Exec(fastConfig());
  auto Q = Exec.registerQueue("slow", [&](const FinalizationTicket &) {
    Started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Finished = true;
    return true;
  });
  ASSERT_TRUE(Exec.submit(Q, 1));
  while (!Started.load())
    std::this_thread::yield();
  EXPECT_EQ(Exec.pending(), 1u) << "a running ticket counts as pending";
  Exec.waitIdle();
  EXPECT_TRUE(Finished.load()) << "waitIdle returned mid-action";
  EXPECT_EQ(Exec.pending(), 0u);
  Exec.drainAndStop();
}

TEST(ExecutorTest, ActionMaySubmitToAnotherQueue) {
  // Actions run with the executor's lock released: an action may feed
  // another queue (below the watermark) without deadlocking.
  Recorder Rec;
  FinalizationExecutor Exec(fastConfig());
  auto Second = Exec.registerQueue("second", [&](const FinalizationTicket &T) {
    return Rec.record(T.Payload);
  });
  auto First = Exec.registerQueue("first", [&](const FinalizationTicket &T) {
    return Exec.submit(Second, 100 + T.Payload);
  });
  for (intptr_t I = 0; I != 40; ++I)
    ASSERT_TRUE(Exec.submit(First, I));
  Exec.waitIdle();
  std::vector<intptr_t> Got = Rec.order();
  ASSERT_EQ(Got.size(), 40u);
  for (intptr_t I = 0; I != 40; ++I)
    EXPECT_EQ(Got[static_cast<size_t>(I)], 100 + I);
  EXPECT_EQ(Exec.stats().Executed, 80u);
  Exec.drainAndStop();
}

} // namespace

//===- bench/bench_cross_shard_send.cpp - Experiment T1 ------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// T1 -- zero-copy inter-shard transfer: the deep-copy transport encodes
// and decodes every node of the payload (two full traversals plus two
// full copies), while copy-out donation (donateGraph) copies once and
// the receiver adopts by retagging segments, copying nothing.
//
// Series: the transfer operation (send + receive) of an N-byte pair
// list, manually timed so payload construction and receiver reclamation
// stay out of the measurement, N swept from one segment (4 KiB) to
// 1 MiB, once per transfer mechanism. The headline (DESIGN.md §13) is
// copy-out donation against deep copy at each size.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "runtime/SegmentTransfer.h"

#include <chrono>

using namespace gengc;
using namespace gengc::runtime;

namespace {

/// Sender and receiver heaps on one thread, wired to a private exchange
/// arena — the transfer protocol without the shard runtime's threads and
/// mailboxes around it, so the timing isolates the mechanism itself.
struct TransferPair {
  explicit TransferPair(size_t DonationThreshold)
      : Exchange(256u * 1024 * 1024),
        Sender(withExchange(benchConfig(), Exchange, DonationThreshold)),
        Receiver(withExchange(benchConfig(), Exchange, 0)),
        Payload(Sender, Value::nil()) {}

  static HeapConfig withExchange(HeapConfig C, Arena &X,
                                 size_t Threshold) {
    C.Exchange = &X;
    C.DonationThresholdBytes = Threshold;
    return C;
  }

  /// Builds the payload in the sender's current allocation context: a
  /// fixnum list of \p Bytes worth of pairs (one pair is two words),
  /// the same shape loadgen's --payload-bytes sends.
  Value buildPayload(int64_t Bytes) {
    Value L = Value::nil();
    const size_t Cells =
        static_cast<size_t>(Bytes) / (2 * sizeof(uintptr_t));
    for (size_t I = 0; I != Cells; ++I)
      L = Sender.cons(Value::fixnum(static_cast<intptr_t>(I)), L);
    return L;
  }

  /// Reclaims what the receiver accumulated (decoded copies and adopted
  /// donation segments); called outside the timed region.
  void drainReceiver() {
    Receiver.collectFull();
    Receiver.collectFull();
  }

  Arena Exchange;
  Heap Sender;
  Heap Receiver;
  Root Payload;
};

using BenchClock = std::chrono::steady_clock;

void timeIteration(benchmark::State &State, BenchClock::time_point T0) {
  State.SetIterationTime(
      std::chrono::duration<double>(BenchClock::now() - T0).count());
}

void addThroughputCounters(benchmark::State &State) {
  State.SetBytesProcessed(State.iterations() * State.range(0));
  State.counters["payload_bytes"] =
      benchmark::Counter(static_cast<double>(State.range(0)));
}

void BM_CrossShardSendDeepCopy(benchmark::State &State) {
  TransferPair P(/*DonationThreshold=*/0); // 0 = donation off.
  P.Payload = P.buildPayload(State.range(0));
  int SinceDrain = 0;
  for (auto _ : State) {
    const auto T0 = BenchClock::now();
    PinnedMessage Msg;
    const bool Ok = encodeMessage(P.Sender, P.Payload.get(), Msg);
    GENGC_ASSERT(Ok, "pair list must be transferable");
    benchmark::DoNotOptimize(receiveTransfer(P.Receiver, Msg));
    timeIteration(State, T0);
    if (++SinceDrain == 16) {
      P.drainReceiver();
      SinceDrain = 0;
    }
  }
  addThroughputCounters(State);
}
BENCHMARK(BM_CrossShardSendDeepCopy)
    ->RangeMultiplier(4)
    ->Range(4096, 1 << 20)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CrossShardSendDonate(benchmark::State &State) {
  TransferPair P(/*DonationThreshold=*/1); // Everything donates.
  P.Payload = P.buildPayload(State.range(0));
  uint64_t DonatedSegments = 0, ZeroCopyBytes = 0;
  int SinceDrain = 0;
  for (auto _ : State) {
    const auto T0 = BenchClock::now();
    const TransferPlan Plan = planTransfer(P.Sender, P.Payload.get());
    GENGC_ASSERT(Plan.Donate, "payload must qualify for donation");
    PinnedMessage Msg;
    buildDonationMessage(P.Sender, P.Payload.get(), Msg);
    DonatedSegments += Msg.Donated->segmentCount();
    ZeroCopyBytes += Msg.Donated->Bytes;
    benchmark::DoNotOptimize(receiveTransfer(P.Receiver, Msg));
    timeIteration(State, T0);
    if (++SinceDrain == 16) {
      P.drainReceiver();
      SinceDrain = 0;
    }
  }
  addThroughputCounters(State);
  State.counters["transfer_donated_segments"] =
      benchmark::Counter(static_cast<double>(DonatedSegments));
  State.counters["transfer_bytes_zero_copy"] =
      benchmark::Counter(static_cast<double>(ZeroCopyBytes));
}
BENCHMARK(BM_CrossShardSendDonate)
    ->RangeMultiplier(4)
    ->Range(4096, 1 << 20)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();

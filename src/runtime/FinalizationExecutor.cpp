//===- runtime/FinalizationExecutor.cpp - Background finalization --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "runtime/FinalizationExecutor.h"

#include "support/Assert.h"

namespace gengc {
namespace runtime {

FinalizationExecutor::FinalizationExecutor()
    : FinalizationExecutor(Config()) {}

FinalizationExecutor::FinalizationExecutor(Config Cfg) : Cfg(Cfg) {
  Worker = std::thread([this] { workerMain(); });
}

FinalizationExecutor::~FinalizationExecutor() { drainAndStop(); }

FinalizationExecutor::QueueId FinalizationExecutor::registerQueue(
    std::string Name, Action Act) {
  std::lock_guard<std::mutex> Lock(M);
  GENGC_ASSERT(!Stopping, "registerQueue on a stopping executor");
  Queues.push_back(Queue{std::move(Name), std::move(Act), {}, 0});
  return static_cast<QueueId>(Queues.size() - 1);
}

bool FinalizationExecutor::submit(QueueId QId, intptr_t Payload,
                                  intptr_t Aux, uint64_t TraceId,
                                  uint64_t SpanId) {
  std::unique_lock<std::mutex> Lock(M);
  GENGC_ASSERT(QId < Queues.size(), "submit to unregistered queue");
  if (Stopping)
    return false;
  if (PendingCount >= Cfg.HighWatermark) {
    ++S.BackpressureWaits;
    SpaceAvailable.wait(Lock, [this] {
      return PendingCount < Cfg.HighWatermark || Stopping;
    });
    if (Stopping)
      return false;
  }
  Queue &Q = Queues[QId];
  PendingTicket P;
  P.Ticket = FinalizationTicket{Q.NextSeq++, Payload, Aux, TraceId, SpanId};
  P.Attempts = 0;
  P.NotBefore = std::chrono::steady_clock::time_point{}; // Ready now.
  P.SubmitTime = std::chrono::steady_clock::now();
  Q.Pending.push_back(P);
  ++PendingCount;
  ++S.Submitted;
  if (PendingCount > S.MaxPending)
    S.MaxPending = PendingCount;
  Lock.unlock();
  WorkAvailable.notify_one();
  return true;
}

size_t FinalizationExecutor::runPassLocked(
    std::unique_lock<std::mutex> &Lock,
    std::chrono::steady_clock::time_point Now) {
  using Clock = std::chrono::steady_clock;
  const auto Nanos = [](Clock::duration D) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(D).count());
  };
  size_t Ran = 0;
  for (size_t QI = 0; QI != Queues.size(); ++QI) {
    // Claim: move up to BatchSize ready tickets off the queue head under
    // this one acquisition. A head still backing off blocks its whole
    // queue: running a younger ticket first would break per-queue FIFO.
    // Draining ignores the delay (but not the retry cap).
    Queue &Q = Queues[QI];
    Claimed.clear();
    while (Claimed.size() != Cfg.BatchSize && !Q.Pending.empty() &&
           (Draining || Q.Pending.front().NotBefore <= Now)) {
      Claimed.push_back(Q.Pending.front());
      Q.Pending.pop_front();
    }
    if (Claimed.empty())
      continue;

    // Run with the lock released. The action is copied out because
    // registerQueue may reallocate Queues meanwhile. Marks[I] is ticket
    // I's start and Marks[I + 1] its end: one clock read per boundary.
    // A failed action stops the batch.
    Action Act = Q.Act;
    Lock.unlock();
    Marks.clear();
    Marks.push_back(Clock::now());
    bool Ok = true;
    while (Ok && Marks.size() <= Claimed.size()) {
      try {
        Ok = Act(Claimed[Marks.size() - 1].Ticket);
      } catch (...) {
        Ok = false;
      }
      Marks.push_back(Clock::now());
    }
    Lock.lock();

    // Retire: record every ticket that ran, then put the unrun ones back
    // at the queue head in their order, and the failed one ahead of them
    // unless it is quarantined. Both still count as pending, as they did
    // while claimed.
    const size_t Attempted = Marks.size() - 1;
    const size_t Succeeded = Ok ? Attempted : Attempted - 1;
    Ran += Attempted;
    for (size_t I = 0; I != Attempted; ++I) {
      const PendingTicket &P = Claimed[I];
      S.WaitNanos.record(Nanos(Marks[I] - P.SubmitTime));
      S.RunNanos.record(Nanos(Marks[I + 1] - Marks[I]));
      if (Cfg.Tracing) {
        FinalizeSpan Sp;
        Sp.TraceId = P.Ticket.TraceId;
        Sp.SpanId = P.Ticket.SpanId;
        Sp.Queue = static_cast<uint32_t>(QI);
        Sp.Attempt = P.Attempts + 1;
        Sp.SubmitNanos = Nanos(P.SubmitTime - Epoch);
        Sp.StartNanos = Nanos(Marks[I] - Epoch);
        Sp.EndNanos = Nanos(Marks[I + 1] - Epoch);
        Sp.Ok = I < Succeeded;
        Spans.push_back(Sp);
      }
    }
    S.Executed += Succeeded;
    PendingCount -= Succeeded;
    if (!Ok) {
      std::deque<PendingTicket> &Head = Queues[QI].Pending;
      for (size_t I = Claimed.size(); I != Attempted; --I)
        Head.push_front(Claimed[I - 1]);
      PendingTicket &P = Claimed[Succeeded];
      ++S.Failed;
      ++P.Attempts;
      if (P.Attempts >= Cfg.MaxRetries) {
        Quarantine.push_back(
            QuarantinedTicket{static_cast<QueueId>(QI), P.Ticket, P.Attempts});
        ++S.Quarantined;
        --PendingCount;
      } else {
        // Exponential backoff, waiting at the queue head.
        P.NotBefore =
            Now + Cfg.BaseBackoff * (uint64_t{1} << (P.Attempts - 1));
        Head.push_front(P);
        ++S.Retried;
      }
    }
    if (PendingCount < Cfg.HighWatermark)
      SpaceAvailable.notify_all();
    if (PendingCount == 0)
      Idle.notify_all();
  }
  return Ran;
}

void FinalizationExecutor::workerMain() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    auto Now = std::chrono::steady_clock::now();
    size_t Ran = runPassLocked(Lock, Now);
    if (Ran != 0) {
      ++S.Batches;
      continue;
    }
    if (PendingCount == 0) {
      Idle.notify_all();
      if (Stopping)
        return;
      // A shard submits the tickets of one guardian drain one at a time,
      // microseconds apart, and the worker runs dry between them. A
      // sleep there costs a wake-up per gap: 15-20 us on a virtual
      // machine, and up to milliseconds when its host is busy. So the
      // worker watches the pending count, unlocked, for IdleSpin first.
      Lock.unlock();
      const auto Until = std::chrono::steady_clock::now() + IdleSpin;
      while (PendingCount.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < Until) {
      }
      Lock.lock();
      WorkAvailable.wait(Lock,
                         [this] { return PendingCount != 0 || Stopping; });
      continue;
    }
    // Everything pending is backing off. Sleep until the earliest
    // deadline (drain mode never gets here: it treats delays as ready).
    auto Earliest = std::chrono::steady_clock::time_point::max();
    for (const Queue &Q : Queues)
      if (!Q.Pending.empty() && Q.Pending.front().NotBefore < Earliest)
        Earliest = Q.Pending.front().NotBefore;
    WorkAvailable.wait_until(Lock, Earliest);
  }
}

void FinalizationExecutor::drainAndStop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Stopping && !Worker.joinable())
      return;
    Stopping = true;
    Draining = true;
  }
  WorkAvailable.notify_all();
  SpaceAvailable.notify_all();
  if (Worker.joinable())
    Worker.join();
  GENGC_ASSERT(PendingCount == 0, "executor stopped with tickets pending");
}

void FinalizationExecutor::waitIdle() {
  std::unique_lock<std::mutex> Lock(M);
  Idle.wait(Lock, [this] { return PendingCount == 0; });
}

size_t FinalizationExecutor::pending() const {
  std::lock_guard<std::mutex> Lock(M);
  return PendingCount;
}

FinalizationExecutor::Stats FinalizationExecutor::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

std::vector<FinalizeSpan> FinalizationExecutor::finalizeSpans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans;
}

std::vector<FinalizationExecutor::QuarantinedTicket>
FinalizationExecutor::quarantined() const {
  std::lock_guard<std::mutex> Lock(M);
  return Quarantine;
}

std::string FinalizationExecutor::queueName(QueueId Id) const {
  std::lock_guard<std::mutex> Lock(M);
  GENGC_ASSERT(Id < Queues.size(), "queueName of unregistered queue");
  return Queues[Id].Name;
}

} // namespace runtime
} // namespace gengc

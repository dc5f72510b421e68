//===- runtime/Shard.cpp - Shard threads and runtime orchestration -------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "runtime/Shard.h"

#include <chrono>

#include "core/TransportGuardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "runtime/SegmentTransfer.h"

namespace gengc {
namespace runtime {

/// Shard-thread-only wrapper: the per-shard transport guardian that
/// implements the shard-exit policy. Every value exported through
/// sendValue is watched; deliveries (the object moved — or died —
/// inside the sender after export) are counted into the report.
class TransportWatch {
public:
  explicit TransportWatch(Heap &H) : TG(H) {}

  void watch(Value V) { TG.watch(V); }
  size_t drainMoved() {
    return TG.drainMoved([](Value) {});
  }

private:
  TransportGuardian TG;
};

/// Records one causal-trace event in \p H's ring. The clock is read
/// only when tracing is on: sends, receives and ticket submissions call
/// this once each.
static void traceEvent(Heap &H, GcEventType Type, uint64_t TraceId,
                       uint64_t SpanId, uint16_t Detail) {
  GcTelemetry &Tel = H.telemetry();
  if (!Tel.TraceEnabled)
    return;
  GcEvent E;
  E.Type = Type;
  E.TimeNanos = Tel.now();
  E.A = TraceId;
  E.B = SpanId;
  E.Detail = Detail;
  Tel.emit(E);
}

//===----------------------------------------------------------------------===//
// Shard
//===----------------------------------------------------------------------===//

Shard::Shard(uint32_t Id, HeapConfig HeapCfg, size_t MailboxCapacity,
             FinalizationExecutor &Exec)
    : Id(Id), HeapCfg(HeapCfg), Exec(Exec), Inbox(MailboxCapacity) {
  Rep.ShardId = Id;
  Rep.Gc.ShardId = Id;
}

void Shard::post(Task T) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Tasks.push_back(std::move(T));
  }
  WorkSignal.notify_one();
}

void Shard::run(Task T) {
  GENGC_ASSERT(std::this_thread::get_id() != Thread.get_id(),
               "Shard::run from the shard's own thread would deadlock");
  std::mutex DoneM;
  std::condition_variable DoneCv;
  bool Done = false;
  post([&](Shard &S) {
    T(S);
    // Signal under the lock: DoneM/DoneCv live on the caller's stack,
    // and the caller may observe Done and destroy them the moment the
    // lock is released — an unlocked notify could still be inside the
    // condition variable at that point.
    std::lock_guard<std::mutex> Lock(DoneM);
    Done = true;
    DoneCv.notify_one();
  });
  std::unique_lock<std::mutex> Lock(DoneM);
  DoneCv.wait(Lock, [&] { return Done; });
}

bool Shard::sendValue(Shard &To, Value V, TransferPolicy Policy) {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "sendValue must run on the sending shard's thread");
  PinnedMessage Msg;
  {
    Root RV(*HeapPtr, V);
    const TransferPlan Plan = planTransfer(*HeapPtr, RV.get());
    if (Plan.Donate) {
      // Zero-copy path: one evacuation into exchange-arena segments on
      // this thread; the receiver adopts by retagging, copying nothing.
      buildDonationMessage(*HeapPtr, RV.get(), Msg);
      Rep.TransferDonatedSegments += Msg.Donated->segmentCount();
      Rep.TransferBytesZeroCopy += Msg.Donated->Bytes;
    } else if (!encodeMessage(*HeapPtr, RV.get(), Msg, Policy)) {
      return false;
    }
    // Shard-exit policy: watch the exported value through the transport
    // guardian, so later movement (or death) inside this shard is
    // observable — the receiver holds only a copy (deep or donated; the
    // sender's graph is untouched either way).
    ExitWatch->watch(RV.get());
    ++Rep.ExportsWatched;
  }
  // Causal stamping: this hop gets a fresh span; the trace is the one
  // we are handling (message-triggered sends chain) or starts here.
  Msg.SpanId = newSpanId();
  Msg.TraceId = CurrentTraceId ? CurrentTraceId : Msg.SpanId;
  traceEvent(*HeapPtr, GcEventType::MessageSend, Msg.TraceId, Msg.SpanId,
             static_cast<uint16_t>(To.id()));
  return To.Inbox.trySend(std::move(Msg));
}

void Shard::deliverMessage(PinnedMessage &Msg) {
  ++Rep.MessagesReceived;
  Rep.MessagesDecodedNodes += Msg.nodeCount();
  if (Msg.Donated)
    ++Rep.MessagesAdopted;
  // The sending shard is recoverable from the span id's high word.
  traceEvent(*HeapPtr, GcEventType::MessageReceive, Msg.TraceId, Msg.SpanId,
             static_cast<uint16_t>((Msg.SpanId >> 32) - 1));
  {
    Root RV(*HeapPtr, receiveTransfer(*HeapPtr, Msg));
    // The handler runs inside the sender's trace: sends and ticket
    // submissions it performs chain onto the same causal arrow.
    CurrentTraceId = Msg.TraceId;
    if (Local)
      Local->onMessage(*this, RV.get());
    CurrentTraceId = 0;
  }
  Rep.ExportsMoved += ExitWatch->drainMoved();
}

bool Shard::submitTicket(FinalizationExecutor::QueueId Queue,
                         intptr_t Payload, intptr_t Aux) {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "submitTicket must run on the shard thread");
  const uint64_t SpanId = newSpanId();
  const uint64_t TraceId = CurrentTraceId ? CurrentTraceId : SpanId;
  traceEvent(*HeapPtr, GcEventType::TicketSubmit, TraceId, SpanId,
             static_cast<uint16_t>(Queue));
  return Exec.submit(Queue, Payload, Aux, TraceId, SpanId);
}

void Shard::pumpInbox() {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "pumpInbox must run on the shard thread");
  // Messages only — deliberately NOT posted tasks: pumpInbox is called
  // from inside running tasks, and re-entering the task queue there
  // would nest task executions arbitrarily deep.
  PinnedMessage Msg;
  while (Inbox.tryReceive(Msg))
    deliverMessage(Msg);
}

Shard &Shard::peer(size_t I) {
  GENGC_ASSERT(Owner, "peer() on a shard outside a runtime");
  return Owner->shard(I);
}

size_t Shard::drainWorkLocked(std::unique_lock<std::mutex> &Lock) {
  size_t Ran = 0;
  while (true) {
    // Posted tasks first (they are rarer and often control messages).
    if (!Tasks.empty()) {
      Task T = std::move(Tasks.front());
      Tasks.pop_front();
      Lock.unlock();
      T(*this);
      ++Rep.TasksRun;
      Lock.lock();
      ++Ran;
      continue;
    }
    Lock.unlock();
    PinnedMessage Msg;
    const bool Got = Inbox.tryReceive(Msg);
    if (Got) {
      deliverMessage(Msg);
      Lock.lock();
      ++Ran;
      continue;
    }
    Lock.lock();
    return Ran;
  }
}

void Shard::loopUntilStopped() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    drainWorkLocked(Lock);
    if (StopRequested && Tasks.empty() && Inbox.depth() == 0)
      return;
    // Sleep until a post() or an inbox wake. The timeout is a safety
    // net for the close() race (close is not routed through the wake
    // hook); it only matters during shutdown.
    WorkSignal.wait_for(Lock, std::chrono::milliseconds(50), [this] {
      return !Tasks.empty() || Inbox.depth() != 0 || StopRequested;
    });
  }
}

void Shard::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    StopRequested = true;
  }
  WorkSignal.notify_one();
}

void Shard::threadMain(
    const std::function<std::unique_ptr<ShardLocal>(Shard &)> &Init) {
  // The heap is constructed here so the shard thread is its owner; it
  // lives on the stack of the thread, making any use-after-exit loud.
  Heap H(HeapCfg);
  HeapPtr = &H;
  H.addPostGcHook([this](Heap &, const GcStats &St) {
    Rep.Gc.Pauses.record(St.DurationNanos);
  });
  {
    TransportWatch Watch(H);
    ExitWatch = &Watch;
    // Locking M inside the hook closes the missed-wakeup window: a
    // sender cannot notify between the loop's predicate check and its
    // actual wait.
    Inbox.setWakeHook([this] {
      { std::lock_guard<std::mutex> Lock(M); }
      WorkSignal.notify_one();
    });
    if (Init)
      Local = Init(*this);

    loopUntilStopped();

    // Shutdown on the owning thread: user drains (collections, guardian
    // sweeps, ticket submission), then state unwinds before the heap.
    if (Local)
      Local->onShutdown(*this);
    Rep.ExportsMoved += ExitWatch->drainMoved();
    Local.reset();
    Inbox.setWakeHook(nullptr);
    ExitWatch = nullptr;
  }
  Rep.Gc.Totals = H.totals();
  Rep.Gc.BytesAllocated = H.totalBytesAllocated();
  {
    const GcTelemetry &Tel = H.telemetry();
    Rep.Gc.Clips = Tel.pauseClips();
    Rep.Gc.MutatorNanos = Tel.now();
    Rep.Gc.SloPauseViolations = Tel.SloPauseViolations;
    Rep.Trace.ShardId = Id;
    Rep.Trace.EpochOffsetNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Tel.Epoch -
                                                             FleetEpoch)
            .count();
    Rep.Trace.Events = Tel.Ring.snapshot();
  }
  HeapPtr = nullptr;
}

//===----------------------------------------------------------------------===//
// ShardRuntime
//===----------------------------------------------------------------------===//

ShardRuntime::ShardRuntime(Config Cfg, InitFn Init) : Exec(Cfg.ExecutorCfg) {
  GENGC_ASSERT(Cfg.ShardCount >= 1, "runtime needs at least one shard");
  Shards.reserve(Cfg.ShardCount);
  for (size_t I = 0; I != Cfg.ShardCount; ++I) {
    Shards.emplace_back(std::unique_ptr<Shard>(new Shard(
        static_cast<uint32_t>(I), Cfg.HeapCfg, Cfg.MailboxCapacity, Exec)));
    Shards.back()->Owner = this;
    // The executor (constructed before any shard) anchors the fleet
    // trace clock; every shard heap's epoch offset is measured from it.
    Shards.back()->FleetEpoch = Exec.epoch();
  }
  for (auto &S : Shards) {
    Shard *P = S.get();
    P->Thread = std::thread([P, Init] { P->threadMain(Init); });
  }
}

ShardRuntime::~ShardRuntime() { shutdown(); }

void ShardRuntime::shutdown() {
  if (Shutdown)
    return;
  Shutdown = true;
  // 1. No new cross-shard traffic; queued messages stay receivable.
  for (auto &S : Shards)
    S->inbox().close();
  // 2. Shards drain remaining inboxes/tasks, run onShutdown, tear down
  //    their ShardLocal and Heap on their own threads, and exit.
  for (auto &S : Shards)
    S->requestStop();
  for (auto &S : Shards)
    if (S->Thread.joinable())
      S->Thread.join();
  // 3. With every shard's tickets submitted, drain the executor; after
  //    this nothing in the process references any (now-dead) heap.
  Exec.drainAndStop();
  // Reports were written by the shard threads; joined, so safe to copy.
  Reports.clear();
  for (auto &S : Shards)
    Reports.push_back(S->Rep);
}

FleetGcStats ShardRuntime::fleetGcStats() const {
  std::vector<ShardGcSample> Samples;
  for (const Shard::Report &R : reports())
    Samples.push_back(R.Gc);
  return aggregateShards(Samples);
}

bool ShardRuntime::exportFleetTrace(const std::string &Path) const {
  std::vector<ShardTraceSample> Samples;
  for (const Shard::Report &R : reports())
    Samples.push_back(R.Trace);
  return dumpFleetTraceToFile(Samples, Exec.finalizeSpans(), Path);
}

} // namespace runtime
} // namespace gengc

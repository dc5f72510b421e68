//===- runtime/FinalizationExecutor.h - Background finalization -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central design point is that guardians decouple
/// *discovering* that an object is ready for clean-up (the collector's
/// job) from *running* the clean-up action (the program's job, "at
/// times convenient to the program"). The FinalizationExecutor is that
/// second half at runtime scale: shard threads drain their guardian
/// tconc queues at safepoints, convert each resurrected object into a
/// heap-independent FinalizationTicket (port id, external block id,
/// ...), and submit it here; a single background worker runs the actual
/// clean-up actions off every mutator's hot path.
///
/// Guarantees:
///  - per-queue FIFO: tickets of one queue run in submission order,
///    matching the guardian tconc order they were drained in;
///  - bounded batches: the worker round-robins queues, claiming at most
///    Config::BatchSize tickets per queue per turn, so one noisy queue
///    cannot starve the rest; a batch costs one lock acquisition to
///    claim and one to retire, whatever its size;
///  - retry with backoff: a failing action (returns false or throws)
///    stops its batch and is retried at the queue head, ahead of the
///    batch's unrun tickets, after BaseBackoff * 2^attempt, queue FIFO
///    preserved while it waits;
///  - quarantine, never silent drop: after MaxRetries failures the
///    ticket moves to a queryable quarantine list;
///  - backpressure: submit() blocks while the total pending count is at
///    HighWatermark (counted), so shards cannot outrun finalization
///    unboundedly;
///  - graceful shutdown: drainAndStop() runs every pending ticket
///    (ignoring backoff *delays*, still honoring retry *caps*) before
///    joining the worker, so heaps can be torn down with nothing in
///    flight.
///
/// Tickets are plain words — never Values — so the executor thread
/// touches no heap and cannot violate shard ownership.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_FINALIZATIONEXECUTOR_H
#define GENGC_RUNTIME_FINALIZATIONEXECUTOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/FleetTrace.h"
#include "telemetry/LatencyRecorder.h"

namespace gengc {
namespace runtime {

/// Heap-independent description of one clean-up action. The meaning of
/// Payload/Aux is private to the queue that owns the ticket (e.g. a
/// port id, an external block id, a pool object sequence number).
struct FinalizationTicket {
  uint64_t Seq = 0; ///< Per-queue submission sequence, assigned on submit.
  intptr_t Payload = 0;
  intptr_t Aux = 0;
  /// Causal-tracing identifiers carried from the submitting shard's
  /// ticket-submit event (see PinnedMessage for the id scheme). Zero
  /// when the submitter is untraced.
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
};

class FinalizationExecutor {
public:
  /// A clean-up action. Returns true on success; returning false (or
  /// throwing) marks the attempt failed and schedules a retry.
  using Action = std::function<bool(const FinalizationTicket &)>;
  using QueueId = uint32_t;

  struct Config {
    size_t BatchSize = 16;  ///< Max tickets per queue per worker turn.
    unsigned MaxRetries = 3; ///< Failed attempts before quarantine.
    std::chrono::nanoseconds BaseBackoff = std::chrono::milliseconds(1);
    size_t HighWatermark = 1024; ///< submit() blocks at this many pending.
    /// Record a FinalizeSpan (on the executor's clock, which the
    /// runtime uses as the fleet epoch) for every executed action, for
    /// the merged fleet trace. Off by default: the span log is
    /// unbounded over the executor's lifetime.
    bool Tracing = false;
  };

  struct Stats {
    uint64_t Submitted = 0;
    uint64_t Executed = 0; ///< Successful actions.
    uint64_t Failed = 0;   ///< Failed attempts (each retry that fails).
    uint64_t Retried = 0;  ///< Re-scheduled attempts.
    uint64_t Quarantined = 0;
    uint64_t Batches = 0; ///< Worker turns that ran at least one ticket.
    /// Queue-depth high watermark: the most tickets ever pending at
    /// once, across all queues.
    uint64_t MaxPending = 0;
    uint64_t BackpressureWaits = 0;
    /// Per-ticket submit-to-start wait and action run time (HDR;
    /// always on — recording is wait-free and the worker already holds
    /// a timestamp at both edges).
    LatencyRecorder WaitNanos;
    LatencyRecorder RunNanos;
  };

  struct QuarantinedTicket {
    QueueId Queue = 0;
    FinalizationTicket Ticket;
    unsigned Attempts = 0;
  };

  FinalizationExecutor(); ///< Default Config.
  explicit FinalizationExecutor(Config Cfg);
  ~FinalizationExecutor();

  FinalizationExecutor(const FinalizationExecutor &) = delete;
  FinalizationExecutor &operator=(const FinalizationExecutor &) = delete;

  /// Registers a named ticket queue with its clean-up action. Must be
  /// called before the first submit to the returned id.
  QueueId registerQueue(std::string Name, Action Act);

  /// Submits a ticket (any thread). Blocks while the executor is at its
  /// high watermark. Returns false iff the executor is already
  /// stopping, in which case the ticket was NOT accepted — submit
  /// before drainAndStop, not after. TraceId/SpanId tie the ticket to
  /// the submitting shard's ticket-submit event in the fleet trace.
  bool submit(QueueId Queue, intptr_t Payload, intptr_t Aux = 0,
              uint64_t TraceId = 0, uint64_t SpanId = 0);

  /// Blocks until every pending ticket has been executed or
  /// quarantined, then stops and joins the worker. Idempotent.
  void drainAndStop();

  /// Blocks until the pending count reaches zero (without stopping).
  void waitIdle();

  size_t pending() const;
  Stats stats() const;
  std::vector<QuarantinedTicket> quarantined() const;
  std::string queueName(QueueId Id) const;

  /// The executor's construction instant. The shard runtime constructs
  /// its executor before any shard thread starts and adopts this as
  /// the fleet trace epoch, so every shard's heap-epoch offset is
  /// non-negative.
  std::chrono::steady_clock::time_point epoch() const { return Epoch; }

  /// The recorded finalize spans (Config::Tracing), on the epoch()
  /// clock. Safe any time; typically read after drainAndStop.
  std::vector<FinalizeSpan> finalizeSpans() const;

private:
  struct PendingTicket {
    FinalizationTicket Ticket;
    unsigned Attempts = 0;
    std::chrono::steady_clock::time_point NotBefore; ///< Backoff deadline.
    std::chrono::steady_clock::time_point SubmitTime;
  };
  struct Queue {
    std::string Name;
    Action Act;
    std::deque<PendingTicket> Pending;
    uint64_t NextSeq = 0;
  };

  /// How long the worker watches for a new ticket before it sleeps.
  static constexpr std::chrono::microseconds IdleSpin{20};

  void workerMain();
  /// Runs one round-robin pass; returns tickets attempted. Called with
  /// the lock held. Per queue it holds the lock once to claim a batch
  /// and once to retire it, and drops it while the batch runs.
  size_t runPassLocked(std::unique_lock<std::mutex> &Lock,
                       std::chrono::steady_clock::time_point Now);

  Config Cfg;
  const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  mutable std::mutex M;
  std::condition_variable WorkAvailable; ///< Worker waits here.
  std::condition_variable SpaceAvailable; ///< Blocked submitters wait here.
  std::condition_variable Idle;           ///< waitIdle/drain waiters.
  std::vector<Queue> Queues;
  std::vector<QuarantinedTicket> Quarantine;
  std::vector<FinalizeSpan> Spans; ///< Config::Tracing only.
  Stats S;
  /// Tickets claimed and not yet retired, and the clock reads at their
  /// boundaries. Worker thread only; reused across batches.
  std::vector<PendingTicket> Claimed;
  std::vector<std::chrono::steady_clock::time_point> Marks;
  /// Queued plus claimed tickets: a claimed ticket stays pending until
  /// the worker retires it. Written under M; the idle worker also reads
  /// it unlocked while it spins.
  std::atomic<size_t> PendingCount{0};
  bool Stopping = false;
  bool Draining = false;
  std::thread Worker;
};

} // namespace runtime
} // namespace gengc

#endif // GENGC_RUNTIME_FINALIZATIONEXECUTOR_H

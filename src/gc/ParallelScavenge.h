//===- gc/ParallelScavenge.h - Multi-worker Cheney scavenge ---*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel variant of the collection's copy phase. One instance is
/// created per collection by Collector::run when the heap's resolved
/// GcThreads is >= 2, and it replaces exactly three serial phases —
/// Roots, RememberedSets, and Copy — with:
///
///   1. Packet building (coordinator only): root slots, root-vector
///      slots, external-scanner slots, strong symbol-table words, and
///      snapshots of the older generations' remembered sets are chunked
///      into fixed-size work packets on a shared queue.
///   2. A worker fixpoint: GcWorkerPool::runJob runs the heap owner as
///      worker 0 plus N-1 pool threads. Each worker drains the queue and
///      Cheney-scans its own to-space lanes; every worker owns a private
///      SpaceContext lane per (space, generation, age), so the copy
///      allocation path stays bump-pointer-only with no locks (only the
///      run-granular Arena::allocateRun takes a lock). Forwarding is an
///      idempotent compare-and-swap on the pair car / object header:
///      exactly one worker wins the claim and copies; losers spin until
///      the final forwarding marker is published and then read the new
///      address. When a worker's lane outgrows one segment run, the
///      fully-sealed runs behind its scan cursor are published to the
///      shared queue as steal-able scan ranges, which is what spreads a
///      single giant structure across workers. Termination is the
///      classic idle-count protocol: all workers idle + empty queue.
///   3. Lane adoption and merge (coordinator only, post-join): worker
///      lanes are appended onto the canonical heap contexts in worker
///      order, sweep cursors jump to the new frontier, worker-local
///      statistics and deferred remembered-set inserts are folded in
///      deterministically (worker order, not completion order).
///
/// Determinism contract: everything order-sensitive — the guardian
/// pend-hold/pend-final fixpoint, tconc appends, the weak second pass,
/// and the symbol table — runs serially on the coordinator *after* the
/// parallel region, over merged state whose observable content (which
/// objects survived, every checked counter) does not depend on worker
/// interleaving. Object addresses and run/segment layout DO vary with
/// the schedule; nothing checked by the shadow-model oracle or the
/// (gc-stats) counters derives from them.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_PARALLELSCAVENGE_H
#define GENGC_GC_PARALLELSCAVENGE_H

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "gc/Collector.h"

namespace gengc {

class ParallelScavenge {
public:
  /// \p Workers >= 2 (the serial path never constructs one of these).
  ParallelScavenge(Collector &C, unsigned G, unsigned Workers);

  /// Runs the Roots / RememberedSets / Copy phases in parallel,
  /// chaining phase timers through \p PhaseCursor exactly like the
  /// serial Collector::run does.
  void run(uint64_t &PhaseCursor);

  /// The parallel forward(obj): Collector::forwardFromSpace redirects
  /// here, for a from-space \p V described by \p Info, for the duration
  /// of the worker fixpoint. CAS-claims the object and copies it into
  /// the calling worker's lane.
  Value forwardShared(Value V, const SegmentInfo &Info);

  /// Collector::maybeReRemember redirects here: remembered-set inserts
  /// discovered while scanning are buffered per worker (PtrHashSet is
  /// not thread-safe) and replayed in worker order after the join.
  void bufferReRemember(unsigned ContainerGen, uintptr_t ContainerBits);

private:
  /// Everything one worker owns. Lanes are private to-space allocation
  /// contexts; only the owning worker allocates into or scans them
  /// (until a sealed run is explicitly published for stealing).
  struct Worker {
    unsigned Index = 0;
    SpaceContext Lanes[NumSpaces][MaxGenerations][MaxTenureCopies];
    Collector::SweepCursor LaneCursors[NumSpaces][MaxGenerations]
                                      [MaxTenureCopies];
    // Local statistics, merged into GcStats after the join.
    uint64_t ObjectsCopied = 0;
    uint64_t BytesCopied = 0;
    uint64_t ObjectsPromoted = 0;
    uint64_t RootsScanned = 0;
    uint64_t RememberedScanned = 0;
    uint64_t StealAttempts = 0;
    uint64_t StealHits = 0;
    /// Deferred H.Remembered inserts: (bits, generation).
    std::vector<std::pair<uintptr_t, unsigned>> ReRemember;
    /// Remembered-set entries to keep (container still points down).
    std::vector<std::pair<uintptr_t, unsigned>> KeptRemembered;
    uint64_t StartNanos = 0;
    uint64_t EndNanos = 0;
  };

  enum class WorkKind : uint8_t {
    ValueSlots, ///< Forward Slots[Begin, End).
    WordSlots,  ///< Forward Words[Begin, End).
    Remembered, ///< Scan RememberedItems[Begin, End).
    ScanRange,  ///< Cheney-scan [ScanBegin, ScanEnd) of a sealed run.
  };

  struct WorkItem {
    WorkKind Kind = WorkKind::ValueSlots;
    /// Worker that published a ScanRange; ~0u for coordinator packets.
    uint32_t Publisher = ~0u;
    size_t Begin = 0, End = 0;
    uintptr_t *ScanBegin = nullptr;
    uintptr_t *ScanEnd = nullptr;
    SpaceKind Space = SpaceKind::Pair;
    uint8_t Gen = 0;
  };

  void buildRootPackets();
  void buildRememberedPackets();
  void workerLoop(Worker &W);
  /// Scans the worker's own lanes to a local fixpoint. Returns true if
  /// any object was processed.
  bool scanOwnLanes(Worker &W);
  bool scanOwnLane(Worker &W, SpaceKind Space, unsigned Gen, unsigned Age);
  /// Publishes lane runs [BeginRun, EndRun) — sealed and never scanned
  /// by the owner — to the shared queue for stealing.
  void publishRuns(Worker &W, const SpaceContext &Ctx, size_t BeginRun,
                   size_t EndRun, SpaceKind Space, unsigned Gen);
  void executeItem(const WorkItem &Item, Worker &W);
  /// Post-join: adopt worker lanes onto the canonical contexts, advance
  /// the collector's sweep cursors, merge statistics and buffered
  /// remembered-set inserts, and emit per-worker telemetry spans.
  void adoptLanesAndMerge();

  Collector &C;
  Heap &H;
  unsigned G;          ///< Collected generation (the caller's G).
  unsigned T;          ///< Target generation (C.T).
  unsigned NumWorkers; ///< Including the coordinator (worker 0).

  static constexpr size_t SlotPacketSize = 256;
  static constexpr size_t RememberedPacketSize = 64;

  /// Packet backing stores. Built before the workers start and stable
  /// for the whole parallel region; items reference them by index.
  std::vector<Value *> Slots;
  std::vector<uintptr_t *> Words;
  std::vector<std::pair<uintptr_t, unsigned>> RememberedItems;

  std::vector<Worker> WorkerStates;

  std::mutex QueueM;
  std::condition_variable QueueCv;
  std::deque<WorkItem> Queue;
  unsigned IdleCount = 0; ///< Workers parked waiting for work.
  bool Done = false;      ///< Global fixpoint reached.

  /// Serializes the fuzzer's forward-witness callback, whose contract
  /// predates the parallel scavenge.
  std::mutex WitnessM;

  /// The worker the current thread is running as, for the redirected
  /// Collector hooks (forwardShared, bufferReRemember).
  static thread_local Worker *CurrentWorker;
};

} // namespace gengc

#endif // GENGC_GC_PARALLELSCAVENGE_H

//===- gc/HeapConfig.h - Heap and collector configuration -----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunable parameters. The paper notes that "the number of generations
/// and the promotion and tenure strategies supported by the collector are
/// under programmer control" but assumes the simple strategy this
/// collector implements: survivors of a collection of generation g move
/// to g+1 (capped at the oldest generation), and collecting g collects
/// all younger generations too.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_HEAPCONFIG_H
#define GENGC_GC_HEAPCONFIG_H

#include <cstddef>
#include <cstdint>

/// Build-time default for HeapConfig::StressGC (and fromspace
/// poisoning). The GENGC_STRESS CMake option defines this to 1 so an
/// entire build — including the test suite — runs collect-on-every-
/// allocation without touching any call site.
#ifndef GENGC_STRESS_DEFAULT
#define GENGC_STRESS_DEFAULT 0
#endif

namespace gengc {

class Arena;

/// Word written over every evacuated (from-space) segment when
/// HeapConfig::PoisonFromSpace is on. The low tag bits (0b111) are not a
/// valid Value tag, and interpreting the pattern as a pointer lands far
/// outside any plausible mapping, so a stale pointer dereference faults
/// or trips a tag assert deterministically instead of reading whatever
/// the next collection happened to leave behind.
constexpr uintptr_t FromSpacePoisonPattern = 0xDEADBEEFDEADBEEFull;

/// Test-only fault injection (HeapConfig::InjectedFault), used by the
/// model-differential fuzzer (src/testing/, tools/gcfuzz/) to prove the
/// oracle actually catches collector bugs. Every fault is memory-safe
/// by construction — they corrupt the *semantics* (liveness and
/// weak-pointer answers), never the heap structure — so the fuzzer
/// reports a clean divergence instead of crashing.
enum class GcFaultInjection : uint8_t {
  None = 0,
  /// processGuardians silently drops the first resurrection of every
  /// collection: the guarded object is neither forwarded nor
  /// delivered, so a model-live object is reclaimed.
  DropFirstResurrection,
  /// fixWeakCar breaks weak cars whose target was copied (i.e. is
  /// live), inverting the paper's update-vs-break rule.
  BreakLiveWeakCar,
  /// The first collection that scans a remembered set drops one entry:
  /// the first remembered container has its younger-generation strong
  /// fields cleared to #f instead of being scanned, exactly as if the
  /// write barrier had missed the old-to-young store. The object the
  /// container kept alive dies while the shadow model keeps it — the
  /// oracle's canary for the paper's remembered-set invariant.
  DropRememberedEntry,
  /// The first closeScope drops one recorded escape: the first container
  /// in the closing scope's escape set has its into-scope strong fields
  /// cleared to #f instead of being scanned, exactly as if the write
  /// barrier had lost the escape record. The object the container kept
  /// alive dies in the evacuation while the shadow model keeps it — a
  /// clean, memory-safe divergence the oracle must catch and shrink.
  LeakScopeEscape,
  /// DonatedGraph destructors skip freeing their exchange-arena runs:
  /// a dropped (never-adopted) donation leaks its segments. The fuzz
  /// runner's exchange-ownership audit — donated segments in use must
  /// equal in-flight plus adopted — must catch and shrink it.
  LeakDonatedSegment,
};

struct HeapConfig {
  /// Virtual address space reserved for the heap; also the hard heap
  /// size limit. Committed lazily.
  size_t ArenaBytes = 512u * 1024 * 1024;

  /// Number of generations, numbered 0 (youngest) through
  /// Generations - 1 (the paper's generation n).
  unsigned Generations = 4;

  /// Automatic collection fires once this many bytes have been allocated
  /// in generation 0 (checked at allocation safepoints).
  size_t Gen0CollectBytes = 1u * 1024 * 1024;

  /// Automatic collection of generation g happens every
  /// CollectionRadix^g automatic collections ("the older the generation,
  /// the less frequently it is collected").
  unsigned CollectionRadix = 4;

  /// Whether allocation safepoints may trigger collection automatically.
  /// Tests that need precise control disable this and call collect()
  /// explicitly.
  bool AutoCollect = true;

  /// Owner-thread affinity checking. A Heap is single-threaded by
  /// contract: the shard-per-thread runtime (src/runtime/) gives every
  /// worker its own private heap, and nothing in the collector is
  /// prepared for concurrent mutation. With this flag on (the default —
  /// the check is two word compares), every allocation, collection,
  /// root registration, guardian operation, and barriered store asserts
  /// that it runs on the thread that constructed the heap (or the one
  /// that last called Heap::bindToCurrentThread), so cross-shard misuse
  /// aborts at the faulting call instead of corrupting a heap.
  bool CheckThreadAffinity = true;

  /// Maximum nesting depth of request-scoped ephemeral generations
  /// (Heap::openScope / DESIGN.md §12). Scope depth is tracked per
  /// segment in a uint8_t, so the hard ceiling is 255; the default is a
  /// sanity bound — scopes model request extents, not recursion.
  unsigned MaxScopeDepth = 8;

  //===------------------------------------------------------------------===//
  // Zero-copy inter-shard transfer (heap/DonatedGraph.h,
  // runtime/SegmentTransfer.h; DESIGN.md §13).
  //===------------------------------------------------------------------===//

  /// Cross-shard payloads at least this large are transferred by segment
  /// donation (copy-out into fresh exchange-arena segments whose
  /// ownership moves to the receiver) instead of the per-object deep
  /// copy through a PinnedMessage. 0 disables donation entirely.
  size_t DonationThresholdBytes = 0;

  /// The exchange arena this heap donates into and adopts from.
  /// nullptr — the default — resolves to the process-wide
  /// processExchange() at Heap construction; tests and the fuzzer
  /// install a private arena for isolated accounting.
  Arena *Exchange = nullptr;

  //===------------------------------------------------------------------===//
  // Correctness-stress tooling. These knobs make rooting bugs (a bare
  // Value held in a C++ local across an allocation) fail loudly and
  // deterministically instead of corrupting the heap thousands of
  // allocations later.
  //===------------------------------------------------------------------===//

  /// Forces a *full* collection at every StressInterval-th allocation
  /// safepoint, so any unrooted Value is invalidated at the earliest
  /// opportunity. Stress collections respect AutoCollect: a heap
  /// configured for manual collection (tests that need precise control
  /// over when objects move) is never stress-collected. Defaults on when
  /// the build sets GENGC_STRESS_DEFAULT (the GENGC_STRESS CMake
  /// option); the GENGC_STRESS environment variable ("1"/"0") overrides
  /// either default at Heap construction.
  bool StressGC = GENGC_STRESS_DEFAULT != 0;

  /// Collect on every Nth allocation safepoint under StressGC. 1 (the
  /// default) collects on every allocation.
  unsigned StressInterval = 1;

  /// Deliberate collector bug for fuzzer validation (see GcFaultInjection
  /// above). Always None outside tools/gcfuzz and the fuzz tests.
  GcFaultInjection InjectedFault = GcFaultInjection::None;

  /// Fill evacuated from-space segments with FromSpacePoisonPattern at
  /// the end of every collection. Any surviving stale pointer then reads
  /// poison instead of plausible-looking dead objects. Defaults to the
  /// stress default; enabled automatically whenever StressGC is enabled
  /// through the environment.
  bool PoisonFromSpace = GENGC_STRESS_DEFAULT != 0;

  //===------------------------------------------------------------------===//
  // Observability (gc/telemetry/). Phase timing is always on; these
  // knobs gate the optional reporters, whose disabled path is a single
  // branch on a flag. The GENGC_GC_LOG and GENGC_GC_TRACE environment
  // variables override the first two at Heap construction (see
  // gc/telemetry/Telemetry.h).
  //===------------------------------------------------------------------===//

  /// One-line report to stderr after every collection (the moral
  /// equivalent of Chez Scheme's collect-notify; also toggled at
  /// runtime by (collect-notify bool) / Heap::setCollectNotify).
  bool GcLog = false;

  /// Record typed GC events (collections, phase spans, guardian
  /// resurrections, promotions, segment traffic) into the telemetry
  /// ring. GENGC_GC_TRACE=<path> additionally dumps the ring as a
  /// Chrome trace_event JSON file when the heap is destroyed.
  bool GcTrace = false;

  /// Pause SLO target: collections longer than this many nanoseconds
  /// increment GcTelemetry::SloPauseViolations (surfaced in (gc-stats)
  /// and fleet-merged). 0 disables the ledger.
  uint64_t SloMaxPauseNanos = 0;

  /// Allocation-site profiler sampling interval: one sample is taken
  /// every ~this many allocated bytes (byte-countdown in the
  /// allocation fast path; see gc/telemetry/AllocProfiler.h). 0 — the
  /// default — disables sampling entirely; the fast-path cost is then
  /// one counter subtract and an untaken branch. The GENGC_GC_PROFILE
  /// environment variable ("1" or a dump path) enables profiling at
  /// DefaultProfileSampleBytes at Heap construction;
  /// GENGC_GC_PROFILE_BYTES overrides the interval.
  size_t ProfileSampleBytes = 0;

  /// Interval used when profiling is enabled through the environment
  /// or a tool flag without an explicit rate.
  static constexpr size_t DefaultProfileSampleBytes = 64 * 1024;
};

} // namespace gengc

#endif // GENGC_GC_HEAPCONFIG_H

//===- heap/Arena.h - Segmented memory arena ------------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The segmented memory system of Section 4: "the heap is structured as a
/// set of segments (each currently 4K bytes in size). Each segment belongs
/// to a specific space and generation; the space and generation to which
/// each segment belongs is maintained in a segment information table with
/// one entry per segment."
///
/// The arena reserves one large virtual region and hands out runs of
/// contiguous segments. An object never spans runs; objects larger than a
/// segment get a dedicated multi-segment run. The segment information
/// table gives O(1) address-to-(space, generation) lookup, which is what
/// makes weak pairs (a distinct weak-pair space) and the generational
/// forwarding test cheap.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_ARENA_H
#define GENGC_HEAP_ARENA_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "support/Assert.h"

namespace gengc {

/// Segment geometry. The paper's segments are 4 KiB.
constexpr size_t SegmentBytes = 4096;
constexpr size_t SegmentWords = SegmentBytes / sizeof(uintptr_t);

/// The spaces objects are segregated into. The paper calls out the
/// ability "to segregate objects based on their characteristics, such as
/// whether they are mutable or whether they contain pointers"; weak pairs
/// "are always placed in a distinct weak-pair space".
enum class SpaceKind : uint8_t {
  Pair = 0,     ///< Ordinary cons cells (no headers).
  WeakPair = 1, ///< Weak cons cells: car is a weak pointer.
  Typed = 2,    ///< Typed objects whose payload contains tagged Values.
  Data = 3,     ///< Typed objects with pointerless payloads.
};
constexpr unsigned NumSpaces = 4;

/// Canonical display name of a space. Every consumer that labels a
/// (generation, space) coordinate — the census, the trace exporters,
/// tools — must use this one table so the labels line up across
/// outputs.
constexpr const char *spaceKindName(SpaceKind Space) {
  switch (Space) {
  case SpaceKind::Pair:
    return "pair";
  case SpaceKind::WeakPair:
    return "weak-pair";
  case SpaceKind::Typed:
    return "typed";
  case SpaceKind::Data:
    return "data";
  }
  return "unknown";
}

/// Generation sentinel carried by in-flight donation segments: copied out
/// by a sender but not yet adopted by any heap. Distinct from every
/// collectible generation so that "in flight" can be told apart from
/// "adopted" even on single-generation heaps, where the oldest generation
/// is also 0. Adoption retags the segments to the receiver's oldest
/// generation.
constexpr uint8_t InFlightGeneration = 0xFE;

/// Per-segment bookkeeping, one entry per segment in the arena.
struct SegmentInfo {
  static constexpr uint8_t FlagInUse = 1 << 0;
  /// Set on every segment of the generations being collected, for the
  /// duration of one collection. forwarded?(x) is "x is not in a
  /// from-space segment, or x carries a forwarding marker".
  static constexpr uint8_t FlagFromSpace = 1 << 1;
  /// Donation segment: allocated in the process exchange arena by a
  /// sending shard's copy-out (Generation == InFlightGeneration while in
  /// flight), adopted by the receiver's heap as tenured space (retagged to
  /// its oldest generation). The flag survives adoption so ownership
  /// accounting can audit the exchange arena.
  static constexpr uint8_t FlagDonated = 1 << 2;

  SpaceKind Space = SpaceKind::Pair;
  uint8_t Generation = 0;
  /// Request-scope ownership: 0 for the ordinary generational ladder,
  /// d > 0 for segments belonging to the d-th open ScopedGeneration
  /// (1 = outermost). Scope segments always carry Generation 0 — a
  /// scope is an ephemeral nursery, not a generation.
  uint8_t ScopeDepth = 0;
  uint8_t Flags = 0;

  bool inUse() const { return Flags & FlagInUse; }
  bool isFromSpace() const { return Flags & FlagFromSpace; }
  bool isDonated() const { return Flags & FlagDonated; }
};

/// A run of contiguous segments holding objects in allocation order.
struct SegmentRun {
  uint32_t FirstSegment = 0;
  uint32_t SegmentCount = 0;
  /// Words of the run occupied by objects. For the run currently being
  /// bumped into, SpaceContext::usedWordsOf() computes this live.
  uint32_t UsedWords = 0;
};

/// Reserves a contiguous virtual region and manages it as runs of
/// segments with a first-fit free list.
///
/// A reservation outlives the arena that uses it. A destroyed arena
/// returns its mapping and its SegmentInfo table to a process-wide cache,
/// and the next arena of the same size takes them back, so a heap built
/// after another one bump-allocates into pages that are already resident
/// instead of taking a zero-fill fault per fresh segment, most of them
/// inside collection pauses (DESIGN.md §2, *Arena reservations*).
class Arena {
public:
  /// Takes a \p TotalBytes reservation from the cache of released ones,
  /// or reserves fresh virtual address space (committed lazily by the OS
  /// as segments are touched) when none of that size is idle. Either way
  /// every segment starts free and untagged; the memory of a recycled
  /// reservation holds whatever its previous arena left there, and is
  /// made accessible step by step as runs reach it.
  explicit Arena(size_t TotalBytes);
  /// Releases the reservation to the cache: clears the SegmentInfo
  /// entries, hands back to the OS every page above the high-water the
  /// arena had reached when it had allocated half of all it ever
  /// allocated, so a cached reservation keeps resident at most what its
  /// last heap worked in and not a spike at its end, and maps the range
  /// PROT_NONE until an arena takes it again, so a stale pointer into a
  /// dead heap faults as it would on an unmapped range.
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Observer invoked on every run allocation and free. Installed by the
  /// heap's telemetry layer only when event tracing is enabled, so the
  /// default path pays one null test per run operation (runs, not
  /// objects: a run covers thousands of allocations).
  using SegmentObserver = void (*)(void *Ctx, bool IsAlloc, uint32_t First,
                                   uint32_t Count, SpaceKind Space,
                                   uint8_t Generation);
  void setSegmentObserver(SegmentObserver Fn, void *Ctx) {
    Observer = Fn;
    ObserverCtx = Ctx;
  }

  /// Allocates a run of \p NumSegments contiguous segments, tagging each
  /// with \p Space and \p Generation. Returns the index of the first
  /// segment. Aborts if the arena is exhausted (the reservation is the
  /// heap-size limit). Thread-safe: the process-wide exchange arena
  /// (processExchange()) is shared by every shard thread, so the free
  /// list, the affected SegmentInfo entries, and the observer callback
  /// are all updated under one internal lock (runs, not objects — the
  /// allocation fast path never comes here).
  /// \p ExtraFlags is OR'd into every segment's flags beyond FlagInUse —
  /// FlagDonated for donation runs.
  uint32_t allocateRun(uint32_t NumSegments, SpaceKind Space,
                       uint8_t Generation, uint8_t ScopeDepth = 0,
                       uint8_t ExtraFlags = 0);

  /// Returns every run of \p Runs to the free list and clears their
  /// segment entries, under one lock acquisition: the observer sees the
  /// runs in the given order, then the batch is sorted in place and
  /// merged into the free list in one pass, coalescing adjacent runs. A
  /// collection frees its whole from-space this way. Thread-safe, like
  /// allocateRun; freeing a segment that is not in use asserts.
  void freeRuns(std::vector<SegmentRun> &Runs);

  /// True if \p Address lies inside the arena reservation.
  bool containsAddress(uintptr_t Address) const {
    return Address >= Base && Address < Base + TotalSegments * SegmentBytes;
  }

  /// Segment index containing \p Address (which must be in the arena).
  uint32_t segmentIndexOf(uintptr_t Address) const {
    GENGC_ASSERT(containsAddress(Address), "address outside arena");
    return static_cast<uint32_t>((Address - Base) / SegmentBytes);
  }

  SegmentInfo &infoAt(uint32_t SegmentIndex) {
    GENGC_ASSERT(SegmentIndex < TotalSegments, "segment index out of range");
    return Infos[SegmentIndex];
  }
  const SegmentInfo &infoAt(uint32_t SegmentIndex) const {
    GENGC_ASSERT(SegmentIndex < TotalSegments, "segment index out of range");
    return Infos[SegmentIndex];
  }

  /// Segment info for \p Address if it lies inside the arena, else null.
  /// One unsigned compare is both the containment test and the index
  /// bounds check (an address below Base wraps to a huge offset), so hot
  /// paths that fall back to another arena pay for a single test.
  const SegmentInfo *findInfo(uintptr_t Address) const {
    const uintptr_t Offset = Address - Base;
    if (Offset >= TotalSegments * SegmentBytes)
      return nullptr;
    return &Infos[Offset / SegmentBytes];
  }

  /// Segment info for the segment containing \p Address.
  SegmentInfo &infoFor(uintptr_t Address) {
    return Infos[segmentIndexOf(Address)];
  }
  const SegmentInfo &infoFor(uintptr_t Address) const {
    return Infos[segmentIndexOf(Address)];
  }

  /// First word of segment \p SegmentIndex.
  uintptr_t *segmentBase(uint32_t SegmentIndex) const {
    return reinterpret_cast<uintptr_t *>(Base +
                                         static_cast<uintptr_t>(SegmentIndex) *
                                             SegmentBytes);
  }

  size_t totalSegments() const { return TotalSegments; }
  size_t segmentsInUse() const { return InUseCount; }

private:
  struct FreeRun {
    uint32_t First;
    uint32_t Count;
  };

  /// Reopens a recycled reservation up to at least segment \p End.
  void openThrough(size_t End);

  /// Serializes allocateRun/freeRuns (free list + SegmentInfo tagging +
  /// observer). Contended only on the exchange arena shard threads share.
  std::mutex RunLock;
  uintptr_t Base = 0;
  size_t TotalSegments = 0;
  size_t InUseCount = 0;
  /// Segments handed out over the arena's life, a reused one each time.
  uint64_t Allocated = 0;
  /// Entry S is Allocated as it stood before the first run that covered
  /// segment S, so the size is the arena's high-water. Nondecreasing.
  std::vector<uint64_t> AllocatedAt;
  /// Segments below this are readable and writable; the rest of a
  /// recycled reservation is still PROT_NONE. Reopening costs time per
  /// resident page, so it follows the runs instead of delaying the
  /// heap's construction by the whole reservation's worth.
  size_t Open = 0;
  SegmentObserver Observer = nullptr;
  void *ObserverCtx = nullptr;
  std::vector<SegmentInfo> Infos;
  /// Sorted by First; adjacent runs are merged on free.
  std::vector<FreeRun> FreeRuns;
  /// freeRuns() builds the merged list here and swaps it in, so both
  /// vectors keep their capacity across batches.
  std::vector<FreeRun> MergedRuns;
};

} // namespace gengc

#endif // GENGC_HEAP_ARENA_H

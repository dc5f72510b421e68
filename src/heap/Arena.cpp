//===- heap/Arena.cpp - Segmented memory arena ----------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "heap/Arena.h"

#include <algorithm>
#include <sys/mman.h>

#include "support/MathExtras.h"

using namespace gengc;

namespace {

/// A reservation between two arenas: mapped PROT_NONE, every SegmentInfo
/// entry default, and no page resident above what its last arena kept.
struct Reservation {
  uintptr_t Base;
  size_t Segments;
  std::vector<SegmentInfo> Infos;
};

/// Every reservation released and not yet taken again. An arena takes
/// the most recently released one of its size, so the cache holds at
/// most as many reservations of a size as were ever live at once.
struct ReservationCache {
  std::mutex Lock;
  std::vector<Reservation> Idle;
};

/// Never destroyed: arenas with static storage (processExchange())
/// release into it during static destruction.
ReservationCache &reservationCache() {
  static ReservationCache *Cache = new ReservationCache;
  return *Cache;
}

} // namespace

Arena::Arena(size_t TotalBytes) {
  TotalBytes = alignTo(TotalBytes, SegmentBytes);
  GENGC_ASSERT(TotalBytes >= SegmentBytes, "arena too small");
  TotalSegments = TotalBytes / SegmentBytes;
  {
    ReservationCache &Cache = reservationCache();
    std::lock_guard<std::mutex> Guard(Cache.Lock);
    for (size_t I = Cache.Idle.size(); I != 0; --I) {
      Reservation &R = Cache.Idle[I - 1];
      if (R.Segments != TotalSegments)
        continue;
      Base = R.Base;
      Infos = std::move(R.Infos);
      Cache.Idle.erase(Cache.Idle.begin() + static_cast<ptrdiff_t>(I - 1));
      break;
    }
  }
  if (!Base) {
    // MAP_NORESERVE keeps the reservation cheap: pages are committed only
    // when a segment is actually used.
    void *Mem = ::mmap(nullptr, TotalBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    GENGC_ASSERT(Mem != MAP_FAILED, "arena reservation failed");
    Base = reinterpret_cast<uintptr_t>(Mem);
    GENGC_ASSERT(isAligned(Base, SegmentBytes),
                 "mmap returned an unaligned region");
    Infos.resize(TotalSegments);
    Open = TotalSegments;
  }
  FreeRuns.push_back({0, static_cast<uint32_t>(TotalSegments)});
}

void Arena::openThrough(size_t End) {
  // Whole steps: one mprotect per 64 segments, not one per run.
  constexpr size_t OpenStep = 64;
  const size_t NewOpen = std::min(TotalSegments, alignTo(End, OpenStep));
  int Rc = ::mprotect(reinterpret_cast<void *>(Base + Open * SegmentBytes),
                      (NewOpen - Open) * SegmentBytes, PROT_READ | PROT_WRITE);
  GENGC_ASSERT(Rc == 0, "arena reservation cannot be reopened");
  Open = NewOpen;
}

Arena::~Arena() {
  // Keep resident the pages the heap had reached by the time it had done
  // half of its allocating, and hand back the rest: a last spike (the
  // full collections a shutdown runs copy the live data above all the
  // heap worked in) and whatever an earlier arena left above.
  const size_t Keep = static_cast<size_t>(
      std::upper_bound(AllocatedAt.begin(), AllocatedAt.end(),
                       Allocated / 2) -
      AllocatedAt.begin());
  // No run ever covered an entry at or above the high-water.
  std::fill(Infos.begin(),
            Infos.begin() + static_cast<ptrdiff_t>(AllocatedAt.size()),
            SegmentInfo());
  void *Above = reinterpret_cast<void *>(Base + Keep * SegmentBytes);
  int Rc = ::madvise(Above, (TotalSegments - Keep) * SegmentBytes,
                     MADV_DONTNEED);
  GENGC_ASSERT(Rc == 0, "arena trim failed");
  Rc = ::mprotect(reinterpret_cast<void *>(Base), Open * SegmentBytes,
                  PROT_NONE);
  GENGC_ASSERT(Rc == 0, "arena reservation cannot be closed");
  ReservationCache &Cache = reservationCache();
  std::lock_guard<std::mutex> Guard(Cache.Lock);
  Cache.Idle.push_back(Reservation{Base, TotalSegments, std::move(Infos)});
}

uint32_t Arena::allocateRun(uint32_t NumSegments, SpaceKind Space,
                            uint8_t Generation, uint8_t ScopeDepth,
                            uint8_t ExtraFlags) {
  GENGC_ASSERT(NumSegments > 0, "empty run requested");
  std::lock_guard<std::mutex> Guard(RunLock);
  // First fit over the sorted free list.
  for (size_t I = 0, E = FreeRuns.size(); I != E; ++I) {
    FreeRun &R = FreeRuns[I];
    if (R.Count < NumSegments)
      continue;
    uint32_t First = R.First;
    if (R.Count == NumSegments)
      FreeRuns.erase(FreeRuns.begin() + static_cast<ptrdiff_t>(I));
    else {
      R.First += NumSegments;
      R.Count -= NumSegments;
    }
    for (uint32_t S = First; S != First + NumSegments; ++S) {
      SegmentInfo &Info = Infos[S];
      GENGC_ASSERT(!Info.inUse(), "allocating an in-use segment");
      Info.Space = Space;
      Info.Generation = Generation;
      Info.ScopeDepth = ScopeDepth;
      Info.Flags = SegmentInfo::FlagInUse | ExtraFlags;
    }
    if (First + NumSegments > Open)
      openThrough(First + NumSegments);
    if (First + NumSegments > AllocatedAt.size())
      AllocatedAt.resize(First + NumSegments, Allocated);
    Allocated += NumSegments;
    InUseCount += NumSegments;
    if (Observer)
      Observer(ObserverCtx, /*IsAlloc=*/true, First, NumSegments, Space,
               Generation);
    return First;
  }
  GENGC_UNREACHABLE("heap exhausted: arena has no free run of the "
                    "requested size");
}

void Arena::freeRuns(std::vector<SegmentRun> &Runs) {
  if (Runs.empty())
    return;
  std::lock_guard<std::mutex> Guard(RunLock);
  for (const SegmentRun &R : Runs) {
    GENGC_ASSERT(R.SegmentCount > 0 &&
                     R.FirstSegment + R.SegmentCount <= TotalSegments,
                 "freeing segments outside the arena");
    if (Observer) {
      // Report before the entries are cleared so the observer still sees
      // the run's space and generation tags.
      const SegmentInfo &Info = Infos[R.FirstSegment];
      Observer(ObserverCtx, /*IsAlloc=*/false, R.FirstSegment,
               R.SegmentCount, Info.Space, Info.Generation);
    }
    for (uint32_t S = R.FirstSegment; S != R.FirstSegment + R.SegmentCount;
         ++S) {
      SegmentInfo &Info = Infos[S];
      GENGC_ASSERT(Info.inUse(), "double free of segment");
      Info = SegmentInfo();
    }
    InUseCount -= R.SegmentCount;
  }

  // One sorted merge of the batch into the free list, coalescing every
  // run that touches its predecessor.
  std::sort(Runs.begin(), Runs.end(),
            [](const SegmentRun &A, const SegmentRun &B) {
              return A.FirstSegment < B.FirstSegment;
            });
  MergedRuns.clear();
  MergedRuns.reserve(FreeRuns.size() + Runs.size());
  auto Append = [this](uint32_t First, uint32_t Count) {
    if (!MergedRuns.empty()) {
      FreeRun &Last = MergedRuns.back();
      GENGC_ASSERT(Last.First + Last.Count <= First,
                   "freed run overlaps a free run");
      if (Last.First + Last.Count == First) {
        Last.Count += Count;
        return;
      }
    }
    MergedRuns.push_back({First, Count});
  };
  size_t I = 0, J = 0;
  while (I != FreeRuns.size() || J != Runs.size()) {
    if (J == Runs.size() ||
        (I != FreeRuns.size() && FreeRuns[I].First < Runs[J].FirstSegment)) {
      Append(FreeRuns[I].First, FreeRuns[I].Count);
      ++I;
    } else {
      Append(Runs[J].FirstSegment, Runs[J].SegmentCount);
      ++J;
    }
  }
  FreeRuns.swap(MergedRuns);
}

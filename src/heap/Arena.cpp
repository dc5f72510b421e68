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

Arena::Arena(size_t TotalBytes) {
  TotalBytes = alignTo(TotalBytes, SegmentBytes);
  GENGC_ASSERT(TotalBytes >= SegmentBytes, "arena too small");
  // MAP_NORESERVE keeps the reservation cheap: pages are committed only
  // when a segment is actually used.
  void *Mem = ::mmap(nullptr, TotalBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  GENGC_ASSERT(Mem != MAP_FAILED, "arena reservation failed");
  Base = reinterpret_cast<uintptr_t>(Mem);
  GENGC_ASSERT(isAligned(Base, SegmentBytes),
               "mmap returned an unaligned region");
  TotalSegments = TotalBytes / SegmentBytes;
  Infos.resize(TotalSegments);
  FreeRuns.push_back({0, static_cast<uint32_t>(TotalSegments)});
}

Arena::~Arena() {
  if (Base)
    ::munmap(reinterpret_cast<void *>(Base), TotalSegments * SegmentBytes);
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

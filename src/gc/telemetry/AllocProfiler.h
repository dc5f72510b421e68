//===- gc/telemetry/AllocProfiler.h - Sampled site profiler ---*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sampled allocation-site heap profiler. Motivated by the MIT/GNU
/// Scheme GC study (PAPERS.md): knowing *which* allocation sites'
/// bytes survive collection is what turns generational tuning from
/// guesswork into engineering.
///
/// Sampling math (byte threshold): one sample is taken every
/// SampleBytes allocated bytes on average. The fast path compares the
/// heap's monotonic allocation counter against a precomputed
/// next-sample threshold; when it crosses, the slow path charges
/// `1 + overshoot / SampleBytes` whole intervals to the active site —
/// so a site's SampledBytes is an unbiased estimate of the bytes it
/// actually allocated, independent of object size, and a single huge
/// allocation is charged its full weight rather than one interval.
/// The threshold walk is deterministic (no RNG): profiles of a
/// deterministic workload are reproducible, which the tests exploit.
///
/// Survival attribution: each sample also records the object's tagged
/// bits in a bounded table. At every collection, while from-space is
/// still intact, the collector sweeps the table (Collector::
/// sweepAllocProfiler): a sampled object that was forwarded has its
/// bits updated and — the first time — credits its weight to the
/// site's SurvivedBytes; one found dead credits DeadBytes and leaves
/// the table. The table is *not* a root: sampling never keeps an
/// object alive.
///
/// Site attribution: sites are interned strings ("vm;<procedure>" for
/// bytecode frames, set by the VM on frame transitions; tools name
/// their own). Site 0 is "runtime" — untagged C++ allocation.
///
/// Enabled or disabled, the fast path is the same compare-and-branch
/// in Heap::allocateRaw (tick() below — a disarmed profiler parks the
/// threshold at UINT64_MAX); CI holds the *enabled* default-rate
/// overhead to <= 2% on allocation microbenches.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TELEMETRY_ALLOCPROFILER_H
#define GENGC_GC_TELEMETRY_ALLOCPROFILER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gengc {

struct HeapConfig;

/// Sampled-object table capacity: live sampled objects tracked for
/// survival attribution. When full, new samples still count bytes to
/// their site but skip survival tracking.
constexpr size_t ProfileTableCapacity = 64 * 1024;

/// Per-site accounting. All byte figures are sampled estimates in
/// units of whole sample intervals.
struct AllocSiteStats {
  std::string Name;
  uint64_t Samples = 0;       ///< Sample events charged to the site.
  uint64_t SampledBytes = 0;  ///< Estimated bytes allocated.
  uint64_t SurvivedBytes = 0; ///< Estimated bytes that survived >= 1
                              ///< collection.
  uint64_t DeadBytes = 0;     ///< Estimated bytes observed dead.
};

class AllocProfiler {
public:
  /// One tracked sampled object (survival attribution).
  struct SampledObject {
    uintptr_t Bits = 0;   ///< Tagged Value bits; updated as it moves.
    uint32_t Site = 0;
    uint32_t WeightBytes = 0; ///< Sample weight this object carries.
    bool Survived = false;    ///< Already credited to SurvivedBytes.
  };

  /// Applies HeapConfig knobs and the GENGC_GC_PROFILE /
  /// GENGC_GC_PROFILE_BYTES environment overrides. Called once from
  /// the Heap constructor.
  void init(const HeapConfig &Cfg);

  bool enabled() const { return Armed; }
  size_t sampleIntervalBytes() const { return SampleBytes; }
  const std::string &dumpPath() const { return DumpPath; }

  /// Allocation fast path: one compare of the heap's monotonic
  /// allocation counter (already in a register at the call site)
  /// against the next sampling threshold, and one almost-never-taken
  /// branch. Disabled profilers keep the threshold at UINT64_MAX, so
  /// enabled and disabled cost the same — which is how the <= 2%
  /// BM_AllocYoung budget is met.
  bool tick(uint64_t TotalAllocatedBytes) const {
    return TotalAllocatedBytes >= NextSampleAt;
  }

  /// Slow path, called only when tick() fired: charges the crossed
  /// intervals to the active site, advances the threshold, and tracks
  /// \p Bits for survival attribution (while the table has room).
  void recordSample(uintptr_t Bits, uint64_t TotalAllocatedBytes);

  /// Interns \p Name, returning its stable site id.
  uint32_t internSite(std::string_view Name);

  /// The site subsequent samples are charged to (the VM points this at
  /// the executing procedure; 0 is the C++ "runtime" site).
  void setCurrentSite(uint32_t Site) { CurrentSite = Site; }
  uint32_t currentSite() const { return CurrentSite; }

  const std::vector<AllocSiteStats> &sites() const { return Sites; }
  std::vector<SampledObject> &trackedObjects() { return Tracked; }

  /// Sites that received at least one sample.
  uint64_t sitesWithSamples() const;
  uint64_t totalSamples() const;
  uint64_t totalSampledBytes() const;

  /// Survival-sweep bookkeeping, called by the collector.
  void creditSurvival(SampledObject &O) {
    if (!O.Survived) {
      O.Survived = true;
      Sites[O.Site].SurvivedBytes += O.WeightBytes;
    }
  }
  void creditDeath(const SampledObject &O) {
    Sites[O.Site].DeadBytes += O.WeightBytes;
  }

  /// Collapsed-stack flamegraph text (one "frames count" line per
  /// site, plus a ";survived" child frame holding the surviving
  /// bytes), directly consumable by flamegraph.pl / speedscope.
  std::string collapsedStacks() const;

  /// Writes collapsedStacks() to \p Path; returns false (with a
  /// message on stderr) if the file cannot be opened.
  bool dumpToFile(const std::string &Path) const;

private:
  bool Armed = false;
  size_t SampleBytes = 0;
  /// The heap-allocation-counter value at which the next sample fires;
  /// UINT64_MAX while disarmed (tick()'s compare then never fires).
  uint64_t NextSampleAt = UINT64_MAX;
  uint32_t CurrentSite = 0;
  std::string DumpPath;

  std::vector<AllocSiteStats> Sites;
  std::unordered_map<std::string, uint32_t> SiteIds;
  std::vector<SampledObject> Tracked;
};

/// RAII scope naming the active allocation site, for C++ callers
/// (tools, the session driver). No-op on a disabled profiler.
class AllocSiteScope {
public:
  AllocSiteScope(AllocProfiler &P, uint32_t Site)
      : P(P), Saved(P.currentSite()) {
    P.setCurrentSite(Site);
  }
  AllocSiteScope(const AllocSiteScope &) = delete;
  AllocSiteScope &operator=(const AllocSiteScope &) = delete;
  ~AllocSiteScope() { P.setCurrentSite(Saved); }

private:
  AllocProfiler &P;
  uint32_t Saved;
};

} // namespace gengc

#endif // GENGC_GC_TELEMETRY_ALLOCPROFILER_H

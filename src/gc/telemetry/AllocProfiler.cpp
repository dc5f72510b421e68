//===- gc/telemetry/AllocProfiler.cpp - Sampled site profiler ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/telemetry/AllocProfiler.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "gc/HeapConfig.h"

using namespace gengc;

void AllocProfiler::init(const HeapConfig &Cfg) {
  SampleBytes = Cfg.ProfileSampleBytes;

  // GENGC_GC_PROFILE: "1" enables at the default rate; any other
  // non-off value is a collapsed-stack dump path (written when the
  // heap is destroyed); "0"/"off" forces profiling off.
  if (const char *Env = std::getenv("GENGC_GC_PROFILE")) {
    std::string_view V(Env);
    if (V.empty() || V == "0" || V == "off" || V == "no" || V == "OFF") {
      SampleBytes = 0;
    } else {
      if (SampleBytes == 0)
        SampleBytes = HeapConfig::DefaultProfileSampleBytes;
      if (!(V == "1" || V == "on" || V == "yes" || V == "ON"))
        DumpPath = Env;
    }
  }
  if (const char *Env = std::getenv("GENGC_GC_PROFILE_BYTES")) {
    const long Bytes = std::atol(Env);
    if (Bytes > 0)
      SampleBytes = static_cast<size_t>(Bytes);
  }

  Armed = SampleBytes != 0;
  if (!Armed)
    return; // NextSampleAt stays UINT64_MAX: tick() never fires.
  NextSampleAt = SampleBytes;
  Sites.clear();
  SiteIds.clear();
  internSite("runtime");
  Tracked.reserve(256);
}

uint32_t AllocProfiler::internSite(std::string_view Name) {
  auto It = SiteIds.find(std::string(Name));
  if (It != SiteIds.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(Sites.size());
  Sites.push_back(AllocSiteStats{std::string(Name), 0, 0, 0, 0});
  SiteIds.emplace(std::string(Name), Id);
  return Id;
}

void AllocProfiler::recordSample(uintptr_t Bits,
                                 uint64_t TotalAllocatedBytes) {
  // Intervals crossed by this allocation: the one that fired plus any
  // further whole intervals a large allocation ran through. Charging
  // Intervals * SampleBytes keeps the per-site estimate unbiased.
  const uint64_t Overshoot = TotalAllocatedBytes - NextSampleAt;
  const uint64_t Intervals = 1 + Overshoot / SampleBytes;
  NextSampleAt += Intervals * SampleBytes;

  const uint64_t Weight = Intervals * SampleBytes;
  AllocSiteStats &Site = Sites[CurrentSite];
  ++Site.Samples;
  Site.SampledBytes += Weight;

  if (Tracked.size() < ProfileTableCapacity) {
    SampledObject O;
    O.Bits = Bits;
    O.Site = CurrentSite;
    O.WeightBytes = static_cast<uint32_t>(
        Weight > UINT32_MAX ? UINT32_MAX : Weight);
    Tracked.push_back(O);
  }
}

uint64_t AllocProfiler::sitesWithSamples() const {
  uint64_t N = 0;
  for (const AllocSiteStats &S : Sites)
    if (S.Samples != 0)
      ++N;
  return N;
}

uint64_t AllocProfiler::totalSamples() const {
  uint64_t N = 0;
  for (const AllocSiteStats &S : Sites)
    N += S.Samples;
  return N;
}

uint64_t AllocProfiler::totalSampledBytes() const {
  uint64_t N = 0;
  for (const AllocSiteStats &S : Sites)
    N += S.SampledBytes;
  return N;
}

std::string AllocProfiler::collapsedStacks() const {
  // Collapsed-stack format: "frame;frame;... count". The root frame is
  // the producer; each site is one child; survived bytes hang off the
  // site as a further child so a flamegraph shows the survivor share
  // of each site's box.
  std::string Out;
  char Line[512];
  for (const AllocSiteStats &S : Sites) {
    if (S.Samples == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "gengc;%s %llu\n", S.Name.c_str(),
                  static_cast<unsigned long long>(S.SampledBytes));
    Out += Line;
    if (S.SurvivedBytes != 0) {
      std::snprintf(Line, sizeof(Line), "gengc;%s;survived %llu\n",
                    S.Name.c_str(),
                    static_cast<unsigned long long>(S.SurvivedBytes));
      Out += Line;
    }
  }
  return Out;
}

bool AllocProfiler::dumpToFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "[gc] cannot open profile output file: %s\n",
                 Path.c_str());
    return false;
  }
  OS << collapsedStacks();
  return OS.good();
}

//===- gc/telemetry/Telemetry.cpp - GC observability state ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "gc/HeapConfig.h"

using namespace gengc;

namespace {

enum class EnvSwitch { Unset, Off, On, Path };

/// Classifies an on/off environment variable that may also carry a
/// file path ("1"/"on"/"yes" -> On, "0"/"off"/"no" -> Off, anything
/// else -> Path).
EnvSwitch classifyEnv(const char *Name, std::string &PathOut) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return EnvSwitch::Unset;
  std::string_view V(Env);
  if (V == "1" || V == "on" || V == "yes" || V == "ON")
    return EnvSwitch::On;
  if (V.empty() || V == "0" || V == "off" || V == "no" || V == "OFF")
    return EnvSwitch::Off;
  PathOut = Env;
  return EnvSwitch::Path;
}

} // namespace

void gengc::initTelemetry(GcTelemetry &T, const HeapConfig &Cfg) {
  T.LogEnabled = Cfg.GcLog;
  T.TraceEnabled = Cfg.GcTrace;
  T.SloMaxPauseNanos = Cfg.SloMaxPauseNanos;

  std::string Path;
  switch (classifyEnv("GENGC_GC_LOG", Path)) {
  case EnvSwitch::On:
  case EnvSwitch::Path: // Any truthy value turns the log line on.
    T.LogEnabled = true;
    break;
  case EnvSwitch::Off:
    T.LogEnabled = false;
    break;
  case EnvSwitch::Unset:
    break;
  }

  Path.clear();
  switch (classifyEnv("GENGC_GC_TRACE", Path)) {
  case EnvSwitch::On:
    T.TraceEnabled = true;
    break;
  case EnvSwitch::Path:
    T.TraceEnabled = true;
    T.TraceDumpPath = Path;
    break;
  case EnvSwitch::Off:
    T.TraceEnabled = false;
    T.TraceDumpPath.clear();
    break;
  case EnvSwitch::Unset:
    break;
  }

  // The ring only exists when something can write to it; a disabled
  // heap carries an empty vector.
  if (T.TraceEnabled)
    T.Ring.reset(TelemetryRingCapacity);
}

void GcTelemetry::recordHistory(const GcStats &S) {
  if (History.size() < TelemetryHistoryDepth) {
    History.push_back(S);
  } else {
    History[static_cast<size_t>(HistoryRecorded % TelemetryHistoryDepth)] =
        S;
  }
  ++HistoryRecorded;
}

void GcTelemetry::recordPause(PauseClip C) {
  if (SloMaxPauseNanos != 0 && C.DurNanos > SloMaxPauseNanos)
    ++SloPauseViolations;
  if (Pauses.size() < PauseClipCapacity) {
    Pauses.push_back(C);
  } else {
    Pauses[static_cast<size_t>(PausesRecorded % PauseClipCapacity)] = C;
  }
  ++PausesRecorded;
}

std::vector<PauseClip> GcTelemetry::pauseClips() const {
  if (Pauses.size() < PauseClipCapacity)
    return Pauses;
  // The ring has wrapped; rotate so the oldest retained clip comes
  // first (clips are consumed as a time-ordered sequence).
  std::vector<PauseClip> Out;
  Out.reserve(Pauses.size());
  const size_t First = static_cast<size_t>(PausesRecorded % Pauses.size());
  for (size_t I = 0; I != Pauses.size(); ++I)
    Out.push_back(Pauses[(First + I) % Pauses.size()]);
  return Out;
}

double GcTelemetry::survivalRate(unsigned Generation) const {
  uint64_t Copied = 0, Before = 0;
  for (const GcStats &S : History) {
    if (S.CollectedGeneration != Generation)
      continue;
    Copied += S.BytesCopied;
    Before += S.BytesInFromSpace;
  }
  if (Before == 0)
    return -1.0;
  return static_cast<double>(Copied) / static_cast<double>(Before);
}

uint64_t GcTelemetry::survivalSamples(unsigned Generation) const {
  uint64_t N = 0;
  for (const GcStats &S : History)
    if (S.CollectedGeneration == Generation)
      ++N;
  return N;
}

void gengc::logCollectionLine(const GcStats &S) {
  // Dominant phase, so a glance shows where the pause went.
  GcPhase Top = GcPhase::Setup;
  for (unsigned I = 0; I != NumGcPhases; ++I)
    if (S.Phases.Nanos[I] > S.Phases[Top])
      Top = static_cast<GcPhase>(I);
  std::fprintf(
      stderr,
      "[gc] #%llu gen %u->%u %.3f ms | copied %llu B in %llu objects "
      "(%llu promoted) | guardians: visited %llu saved %llu loops %llu | "
      "weak broken %llu | segments freed %llu | top phase %s %.3f ms\n",
      static_cast<unsigned long long>(S.CollectionIndex),
      S.CollectedGeneration, S.TargetGeneration,
      static_cast<double>(S.DurationNanos) / 1e6,
      static_cast<unsigned long long>(S.BytesCopied),
      static_cast<unsigned long long>(S.ObjectsCopied),
      static_cast<unsigned long long>(S.ObjectsPromoted),
      static_cast<unsigned long long>(S.ProtectedEntriesVisited),
      static_cast<unsigned long long>(S.GuardianObjectsSaved),
      static_cast<unsigned long long>(S.GuardianLoopIterations),
      static_cast<unsigned long long>(S.WeakPointersBroken),
      static_cast<unsigned long long>(S.SegmentsFreed), gcPhaseName(Top),
      static_cast<double>(S.Phases[Top]) / 1e6);
}

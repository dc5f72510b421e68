//===- gc/telemetry/Telemetry.h - GC observability state ------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-heap observability state: the typed event ring, the rolling
/// window of recent per-collection statistics (for survival rates), and
/// the enable flags. Everything here is designed so that the *disabled*
/// path — the default — is a single branch on a flag: emit() checks
/// TraceEnabled and returns; the post-GC log line checks LogEnabled.
/// Phase timers (PhaseTimer) are the one always-on piece: two clock
/// reads per collection phase, so GcStats::Phases always reconciles
/// with DurationNanos and every later performance PR can read where a
/// pause went without rebuilding.
///
/// Environment overrides (applied at Heap construction, after the
/// HeapConfig defaults):
///   GENGC_GC_LOG=1|0     force the one-line post-GC reporter on/off.
///   GENGC_GC_TRACE=1     enable event recording into the ring.
///   GENGC_GC_TRACE=path  additionally dump a Chrome trace_event JSON
///                        file to `path` when the heap is destroyed.
///   (0/off/no disables either.)
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TELEMETRY_TELEMETRY_H
#define GENGC_GC_TELEMETRY_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gc/GcStats.h"
#include "gc/telemetry/EventRing.h"

namespace gengc {

struct HeapConfig;

/// Event-ring capacity when tracing is enabled; wrapping keeps the
/// newest events.
constexpr size_t TelemetryRingCapacity = 4096;

/// Per-collection statistics retained in the rolling history window
/// that feeds the per-generation survival-rate gauges.
constexpr size_t TelemetryHistoryDepth = 64;

/// Pause intervals retained for minimum-mutator-utilization curves
/// (telemetry/Mmu.h); wrapping keeps the newest clips.
constexpr size_t PauseClipCapacity = 8192;

/// One stop-the-world pause as an interval on the heap's telemetry
/// clock. The bounded ring of these (GcTelemetry::pauseClips) is the
/// raw material for minimum-mutator-utilization curves
/// (telemetry/Mmu.h): MMU needs *where* pauses fell, not just how long
/// they were, which is why this exists alongside the GcStats history.
struct PauseClip {
  uint64_t StartNanos = 0; ///< Pause start, nanos since the heap epoch.
  uint64_t DurNanos = 0;   ///< Pause duration.
};

/// Observability state owned by a Heap.
struct GcTelemetry {
  /// One-line report to stderr after every collection (Chez's
  /// collect-notify; toggled by (collect-notify bool) / GENGC_GC_LOG).
  bool LogEnabled = false;
  /// Event recording into the ring (HeapConfig::GcTrace /
  /// GENGC_GC_TRACE).
  bool TraceEnabled = false;
  /// When nonempty, the heap dumps a Chrome trace_event JSON of the
  /// ring here on destruction (GENGC_GC_TRACE=<path>).
  std::string TraceDumpPath;

  GcEventRing Ring;

  /// Rolling window of the last TelemetryHistoryDepth collections'
  /// statistics, oldest first once full; feeds per-generation survival
  /// rates.
  std::vector<GcStats> History;
  uint64_t HistoryRecorded = 0;

  /// Bounded ring of recent pause intervals (always on: one 16-byte
  /// append per collection). Wrapping keeps the newest clips, so MMU is
  /// computed over the most recent mutator window.
  std::vector<PauseClip> Pauses;
  uint64_t PausesRecorded = 0;

  /// Pause SLO: collections longer than this count as violations
  /// (HeapConfig::SloMaxPauseNanos; 0 disables). Surfaced in
  /// (gc-stats) and fleet-merged by telemetry/Aggregate.
  uint64_t SloMaxPauseNanos = 0;
  uint64_t SloPauseViolations = 0;

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  /// Nanoseconds since the heap epoch.
  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Records one event. The disabled path is this one branch.
  void emit(const GcEvent &E) {
    if (!TraceEnabled)
      return;
    Ring.push(E);
  }

  /// Appends a finished collection's statistics to the rolling window.
  void recordHistory(const GcStats &S);

  /// Appends one pause interval to the bounded clip ring and charges
  /// the pause-SLO ledger. Called by the collector at the end of every
  /// collection.
  void recordPause(PauseClip C);

  /// The retained pause clips, oldest first.
  std::vector<PauseClip> pauseClips() const;

  /// Survival rate (bytes copied / bytes in from-space) over the
  /// recorded window for collections of generation \p Generation.
  /// Returns a negative value when the window holds no such collection.
  double survivalRate(unsigned Generation) const;

  /// Collections of \p Generation in the recorded window.
  uint64_t survivalSamples(unsigned Generation) const;
};

/// Applies the HeapConfig telemetry knobs and the GENGC_GC_LOG /
/// GENGC_GC_TRACE environment overrides, and sizes the ring and
/// history window. Called once from the Heap constructor.
void initTelemetry(GcTelemetry &T, const HeapConfig &Cfg);

/// The one-line post-GC reporter: generation, pause, copy volume,
/// guardian work, and the dominant phase, on stderr.
void logCollectionLine(const GcStats &S);

/// Visits the collector totals the benchmark JSON reports (GcPauseRecorder
/// and loadgen --json) as (const std::string &key, value): collection
/// counts, each keyed row of the GcStats.h table, and the summed pause.
template <typename Fn>
void forEachGcTotalsExport(const GcTotals &T, Fn &&Emit) {
  Emit("gc_collections", T.Collections);
  Emit("gc_full_collections", T.FullCollections);
#define GENGC_X(Name, Merge, Key, ...)                                         \
  if (*Key)                                                                    \
    Emit(std::string("gc_") + Key, T.Name);
  GENGC_GC_COUNTERS(GENGC_X)
#undef GENGC_X
  Emit("gc_total_pause_ns", T.DurationNanos);
}

/// Likewise for the request-scope totals (loadgen --json and
/// bench_ablation's scoped churn).
template <typename Fn>
void forEachScopeTotalsExport(const ScopeTotals &T, Fn &&Emit) {
  Emit("gc_scope_opens", T.ScopesOpened);
  Emit("gc_scope_closes", T.ScopesClosed);
  Emit("gc_scope_max_depth", T.MaxDepth);
  Emit("gc_scope_objects_evacuated", T.ObjectsEvacuated);
  Emit("gc_scope_bytes_evacuated", T.BytesEvacuated);
  Emit("gc_scope_bytes_in_scopes", T.BytesInScopes);
  Emit("gc_scope_bytes_reclaimed", T.BytesReclaimed);
  Emit("gc_scope_close_ns", T.CloseNanos);
}

/// RAII phase timer: charges the enclosed scope to S.Phases[P] and,
/// when tracing is enabled, emits the matching PhaseSpan event.
///
/// Timers chain through a caller-owned cursor: a phase *starts* where
/// the previous one ended (the collection's start for the first), and
/// the destructor advances the cursor to its own end-of-phase clock
/// read. Consecutive phases therefore tile the pause with no
/// inter-phase holes — one clock read per boundary instead of two —
/// which is what lets Phases.totalNanos() reconcile with DurationNanos
/// to within a single tail segment even for microsecond-scale pauses.
class PhaseTimer {
public:
  PhaseTimer(GcTelemetry &T, GcStats &S, GcPhase P, uint64_t &CursorNanos)
      : T(T), S(S), P(P), Cursor(CursorNanos), StartNanos(CursorNanos) {}

  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

  ~PhaseTimer() {
    const uint64_t End = T.now();
    const uint64_t Dur = End - StartNanos;
    Cursor = End;
    S.Phases[P] += Dur;
    if (T.TraceEnabled) {
      GcEvent E;
      E.Type = GcEventType::PhaseSpan;
      E.TimeNanos = StartNanos;
      E.DurNanos = Dur;
      E.Collection = static_cast<uint32_t>(S.CollectionIndex);
      E.Generation = static_cast<uint8_t>(S.CollectedGeneration);
      E.Detail = static_cast<uint16_t>(P);
      T.emit(E);
    }
  }

private:
  GcTelemetry &T;
  GcStats &S;
  GcPhase P;
  uint64_t &Cursor;
  uint64_t StartNanos;
};

} // namespace gengc

#endif // GENGC_GC_TELEMETRY_TELEMETRY_H

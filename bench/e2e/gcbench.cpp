//===- bench/e2e/gcbench.cpp - End-to-end benchmark driver ----------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's end-to-end benchmark driver. One process runs one
/// workload: a closed loop with one client per shard, each running
/// sessions back to back with no think time, over the public API of the
/// shard runtime, the heap, guardians, the guarded hash table, the
/// resource pool, external memory and the port table. bench/e2e/run.py
/// builds it, picks the op count, and turns its JSON into the metrics
/// that BENCHMARK.json names; see bench/e2e/README.md.
///
///   gcbench --workload guardian-sessions --seed 1 --ops 8000000
///           [--trace-out trace.json]
///
/// A run is Rounds rounds. Each round builds a fresh ShardRuntime (its
/// set-up is timed), runs ops/Rounds ops split over the clients, shuts
/// down, and audits the books. Extra set-up-only rounds bring the set-up
/// sample count to SetupSamples, whose median is setup_s. End-to-end
/// times are reported at a fixed machine speed that a probe around each
/// round's timed window measures (SpeedProbe).
///
/// Layers are timed from outside only: the driver wraps each call into
/// a layer's public functions, and the post-GC and scope-close hooks
/// deliver every pause with its phase breakdown. --trace-out switches on
/// the per-layer spans (kept in preallocated per-shard memory, written
/// at exit as a Chrome trace); without it the same code paths take one
/// untaken branch per call and only the end-to-end numbers are measured.
///
/// The last line of standard output is one JSON object. The exit code is
/// 0 only if every audit passed.
///
//===----------------------------------------------------------------------===//

#include "core/GuardedHashTable.h"
#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "io/GuardedPorts.h"
#include "io/PortTable.h"
#include "object/Layout.h"
#include "resource/ExternalMemory.h"
#include "resource/ResourcePool.h"
#include "runtime/Shard.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace gengc;
using namespace gengc::runtime;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessEpoch = Clock::now();

/// Nanoseconds since process start: the one clock every timestamp in
/// this file uses, including the send stamps carried inside messages.
uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ProcessEpoch)
          .count());
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  unsigned Shards;
  bool Scoped;          ///< Each session runs inside a ScopedExtent.
  unsigned SendPct;     ///< Share of ops that send to the peer shard.
  size_t PayloadCells;  ///< Fixnum-list pairs per message; 0 = small record.
};

// Two shards at most: two mutator threads plus the executor fit a
// 4-core machine, so the mesh workloads measure the runtime rather than
// the scheduler.
constexpr Workload Workloads[] = {
    {"guardian-sessions", 1, false, 0, 0},
    {"scoped-sessions", 1, true, 0, 0},
    {"mesh-small", 2, false, 30, 0},
    {"mesh-bulk", 2, false, 5, 1024}, // 1024 pairs = 16 KiB.
};

constexpr size_t SessionOps = 256;
constexpr size_t DrainEvery = 32;  ///< Guardian drain + inbox pump cadence.
constexpr size_t StateSlots = 64;  ///< Session-state vector length.
constexpr size_t StoreBurst = 16;  ///< vectorSets per store-burst op.
constexpr size_t TableKeys = 256;  ///< Distinct guarded-table key symbols.
constexpr size_t PortPaths = 64;   ///< Distinct port file names per shard.
constexpr size_t RecentSlots = 8;  ///< Received messages kept alive.
constexpr uint64_t SendRetryNs = 1000000000; ///< Give up on a full inbox.
/// Fresh runtimes per run. The end-to-end numbers are medians over
/// rounds, so a burst of machine noise moves one round, not the run.
/// Short rounds also bound the port table and the external-memory
/// ledger, which keep a record per port and block ever opened.
constexpr unsigned Rounds = 80;
constexpr unsigned SetupSamples = 101;
/// Pool bitmaps leased at once before acquire() fails (1 MiB of 256 B
/// bitmaps).
constexpr size_t PoolCap = 4096;

//===----------------------------------------------------------------------===//
// Machine-speed probe
//===----------------------------------------------------------------------===//

/// A fixed pointer chase through 256 KiB, timed on each shard thread just
/// before and just after its timed window. It touches nothing of the
/// library, so only the machine moves it. On a VM whose cores are shared
/// with other tenants, their load slows the same code by up to 1.7x for
/// seconds at a time, and this chase slows with it (README.md, "Noise").
/// Every end-to-end time is reported at the probe's reference speed: see
/// AtRef.
class SpeedProbe {
public:
  static constexpr size_t Slots = 1u << 16; ///< 256 KiB of uint32_t.
  static constexpr unsigned Steps = 100000;

  SpeedProbe() : Next(Slots) {
    // Sattolo's shuffle: one cycle through every slot.
    for (size_t I = 0; I != Slots; ++I)
      Next[I] = static_cast<uint32_t>(I);
    uint64_t X = 0x9E3779B97F4A7C15ULL;
    for (size_t I = Slots - 1; I > 0; --I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      std::swap(Next[I], Next[X % I]);
    }
  }

  /// Nanoseconds for one chase. An untimed lap first brings the array
  /// into cache, so what the workload left there does not move the time.
  uint64_t run() const {
    uint32_t P = 0;
    for (size_t I = 0; I != Slots; ++I)
      P = Next[P];
    const uint64_t T0 = nowNs();
    for (unsigned I = 0; I != Steps; ++I)
      P = Next[P];
    const uint64_t T1 = nowNs();
    Sink.store(P, std::memory_order_relaxed);
    return T1 - T0;
  }

private:
  std::vector<uint32_t> Next;
  mutable std::atomic<uint32_t> Sink{0};
};

const SpeedProbe Probe;
/// The chase's time on the reference machine (README.md) when no other
/// tenant loads it.
constexpr double ProbeRefNs = 5.0e5;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Log-linear histogram of nanosecond samples (128 linear sub-buckets
/// per power of two, so under 0.8% quantization), with quantiles
/// interpolated inside the bucket. Interpolation keeps a percentile from
/// snapping to the same bucket edge on every run.
class Histo {
public:
  static constexpr unsigned SubBits = 7;
  static constexpr unsigned Sub = 1u << SubBits;

  Histo() : Counts((64 - SubBits + 1) * Sub, 0) {}

  void record(uint64_t V) {
    ++Counts[index(V)];
    ++N;
    if (V > Max)
      Max = V;
  }
  void merge(const Histo &O) {
    for (size_t I = 0; I != Counts.size(); ++I)
      Counts[I] += O.Counts[I];
    N += O.N;
    Max = std::max(Max, O.Max);
  }
  /// Adds \p O's samples multiplied by \p F. Each bucket moves as its
  /// midpoint, which stays within the bucket quantization above.
  void mergeScaled(const Histo &O, double F) {
    for (size_t I = 0; I != O.Counts.size(); ++I)
      if (O.Counts[I])
        Counts[index(static_cast<uint64_t>(
            (static_cast<double>(lower(I)) +
             static_cast<double>(width(I)) / 2) *
            F))] += O.Counts[I];
    N += O.N;
    Max = std::max(Max, static_cast<uint64_t>(static_cast<double>(O.Max) * F));
  }
  uint64_t count() const { return N; }

  /// Value at quantile \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const {
    if (N == 0)
      return 0;
    const double Rank = Q * static_cast<double>(N);
    uint64_t Before = 0;
    for (size_t I = 0; I != Counts.size(); ++I) {
      const uint64_t C = Counts[I];
      if (C == 0)
        continue;
      if (static_cast<double>(Before + C) >= Rank) {
        const double Frac = std::clamp(
            (Rank - static_cast<double>(Before)) / static_cast<double>(C), 0.0,
            1.0);
        const double V = static_cast<double>(lower(I)) +
                         Frac * static_cast<double>(width(I));
        return std::min(V, static_cast<double>(Max));
      }
      Before += C;
    }
    return static_cast<double>(Max);
  }

private:
  static size_t index(uint64_t V) {
    if (V < 2 * Sub)
      return static_cast<size_t>(V);
    const unsigned Exp = 63 - static_cast<unsigned>(__builtin_clzll(V));
    return (Exp - SubBits + 1) * Sub + ((V >> (Exp - SubBits)) - Sub);
  }
  static uint64_t lower(size_t I) {
    const size_t Row = I / Sub;
    if (Row <= 1)
      return I;
    return static_cast<uint64_t>(Sub + I % Sub) << (Row - 1);
  }
  static uint64_t width(size_t I) {
    const size_t Row = I / Sub;
    return Row <= 1 ? 1 : uint64_t{1} << (Row - 1);
  }

  std::vector<uint64_t> Counts;
  uint64_t N = 0;
  uint64_t Max = 0;
};

//===----------------------------------------------------------------------===//
// Layer spans
//===----------------------------------------------------------------------===//

/// The layers the driver calls into, named <module>.<part> after src/.
/// Pauses (gc.collect) are not driver calls; the post-GC hook adds them.
enum Layer : uint8_t {
  Driver, ///< The driver's own bookkeeping: unattributed time.
  GcAlloc,
  GcStore,
  GcScope,
  GuardianProtect,
  GuardianDrain,
  TableAccess,
  PoolCall,
  ExtCall,
  PortsCall,
  Send,
  Recv,
  Submit,
  NumLayers
};

constexpr const char *LayerNames[NumLayers] = {
    "driver",         "gc.alloc",           "gc.store",
    "gc.scope",       "core.guardian.protect", "core.guardian.drain",
    "core.table",     "resource.pool",      "resource.ext",
    "io.ports",       "runtime.send",       "runtime.recv",
    "runtime.executor.submit"};

/// One recorded span for the Chrome trace.
struct SpanRec {
  uint64_t Start;
  uint64_t End;
  uint64_t Op;
  uint16_t Kind; ///< A Layer, or one of the kinds below.
};
constexpr uint16_t KindOp = 100;
constexpr uint16_t KindPause = 101;
constexpr uint16_t KindPhase = 102; ///< + GcPhase index.

/// Per-shard span recorder. Spans are contiguous: one clock read ends a
/// span and starts the next, so tracing costs one read per layer call.
/// A few driver instructions between two calls are charged to the span
/// before them; the driver's own bookkeeping is marked as `driver`. A
/// pause reported by the post-GC hook is subtracted from the span it
/// interrupted, which gives each layer its self time.
class Tracer {
public:
  bool On = false;
  uint64_t Self[NumLayers] = {};
  uint64_t PauseNs = 0; ///< gc.collect self time.
  Histo SendNs, SubmitNs;
  std::vector<SpanRec> Spans; ///< Preallocated; sampled ops only.
  uint64_t SampleEvery = 1;

  /// Ends the current span and starts one of layer \p L. Returns the
  /// boundary time (0 when tracing is off).
  uint64_t at(Layer L) {
    if (!On)
      return 0;
    const uint64_t T = nowNs();
    switchTo(L, T);
    return T;
  }

  void beginOp(uint64_t Op, uint64_t T) {
    if (!On)
      return;
    CurOp = Op;
    Sampled = Op % SampleEvery == 0 && Spans.size() < Spans.capacity();
    Cur = Driver;
    SegStart = T;
    PauseInSeg = 0;
  }
  void endOp(uint64_t Start, uint64_t T) {
    if (!On)
      return;
    switchTo(Driver, T);
    if (Sampled)
      keep({Start, T, CurOp, KindOp});
  }

  /// A collection of \p S.DurationNanos just ended at \p End (post-GC
  /// hook time): rebuild it as [End - Duration, End] with the nine
  /// phases laid end to end inside.
  void pause(uint64_t End, const GcStats &S) {
    if (!On)
      return;
    PauseInSeg += S.DurationNanos;
    PauseNs += S.DurationNanos;
    if (!Sampled)
      return;
    uint64_t T = End > S.DurationNanos ? End - S.DurationNanos : 0;
    keep({T, End, CurOp, KindPause});
    for (unsigned P = 0; P != NumGcPhases; ++P) {
      const uint64_t D = S.Phases.Nanos[P];
      if (D)
        keep({T, T + D, CurOp, static_cast<uint16_t>(KindPhase + P)});
      T += D;
    }
  }

private:
  /// Appends within the preallocated buffer; never reallocates.
  void keep(const SpanRec &S) {
    if (Spans.size() < Spans.capacity())
      Spans.push_back(S);
  }

  void switchTo(Layer L, uint64_t T) {
    const uint64_t Dur = T - SegStart;
    const uint64_t SelfNs = Dur > PauseInSeg ? Dur - PauseInSeg : 0;
    Self[Cur] += SelfNs;
    if (Cur == Send)
      SendNs.record(SelfNs);
    else if (Cur == Submit)
      SubmitNs.record(SelfNs);
    if (Sampled && Cur != Driver)
      keep({SegStart, T, CurOp, Cur});
    Cur = L;
    SegStart = T;
    PauseInSeg = 0;
  }

  Layer Cur = Driver;
  uint64_t SegStart = 0;
  uint64_t PauseInSeg = 0;
  uint64_t CurOp = 0;
  bool Sampled = false;
};

//===----------------------------------------------------------------------===//
// Per-shard statistics
//===----------------------------------------------------------------------===//

/// Plain counters. A shard thread increments its own; main sums shards.
enum Counter : unsigned {
  OpsAttempted,
  OpsFailed,
  PortsOpened,
  ExtAllocs,
  ExtRefused,
  PoolAcquires,
  PoolExhausted,
  TableAccesses,
  TableRemoved,
  StoreCalls,
  Protects,
  Delivered,
  Drains,
  TicketsSubmitted, ///< In and out of the timed window (executor ledger).
  MsgsSent,
  SendRefused,
  SendBytes,
  MsgsSeen, ///< Every onMessage, in and out of the window (message ledger).
  Pumps,
  AllocBytes,
  BarriersExecuted,
  BarriersElided,
  Collections,
  FullCollections,
  BytesCopied,
  BytesInFromSpace,
  RememberedScanned,
  PhaseUnattributedNs,
  CollectPauseNs,
  StealAttempts,
  StealHits,
  ScopeCloses,
  ScopeBytesEvacuated,
  ScopeBytesIn,
  ScopePauseNs,
  WallNs, ///< Timed shard wall time: client start to client end.
  NumCounters
};

/// What one shard measures in one round. Written only by that shard's
/// thread while the round runs; main reads it after the join and folds
/// it into the run's totals.
struct ShardStats {
  uint64_t C[NumCounters] = {};
  uint64_t PhaseNs[NumGcPhases] = {};
  uint64_t MaxWorkers = 0;
  Histo OpNs, PauseNs, MinorPauseNs, FullPauseNs, ScopeCloseNs, MsgNs;

  void merge(const ShardStats &O) {
    for (unsigned I = 0; I != NumCounters; ++I)
      C[I] += O.C[I];
    for (unsigned P = 0; P != NumGcPhases; ++P)
      PhaseNs[P] += O.PhaseNs[P];
    MaxWorkers = std::max(MaxWorkers, O.MaxWorkers);
    OpNs.merge(O.OpNs);
    PauseNs.merge(O.PauseNs);
    MinorPauseNs.merge(O.MinorPauseNs);
    FullPauseNs.merge(O.FullPauseNs);
    ScopeCloseNs.merge(O.ScopeCloseNs);
    MsgNs.merge(O.MsgNs);
  }
};

/// The finalization-lag ledger, written by the executor thread only.
struct LagLedger {
  /// Tickets whose action starts after this instant ran outside the
  /// timed window and are not counted.
  std::atomic<uint64_t> WindowEnd{0};
  Histo LagNs;
  uint64_t Unstamped = 0; ///< In-window tickets with no drop stamp.

  /// The clean-up action's first step: the lag from drop to now.
  void onActionStart(const FinalizationTicket &T) {
    const uint64_t Start = nowNs();
    if (Start > WindowEnd.load(std::memory_order_relaxed))
      return;
    if (T.Aux > 0)
      LagNs.record(Start - static_cast<uint64_t>(T.Aux));
    else
      ++Unstamped;
  }
};

/// One round's external state. Owned by main, so it outlives the heaps
/// and the executor actions that reference it.
struct RoundEnv {
  MemoryFileSystem FS;
  PortTable Ports{FS};
  ExternalMemoryManager ExtMgr;
  FinalizationExecutor::QueueId PortQueue = 0;
  FinalizationExecutor::QueueId ExtQueue = 0;
  /// When the driver dropped its last reference to each port / block,
  /// by id (0 = not dropped yet). Shard thread only; the stamp rides to
  /// the executor as the ticket's Aux word.
  std::vector<uint64_t> PortDrop, ExtDrop;
  bool InWindow = false; ///< Shard thread only.
  uint64_t ClientStart = 0, ClientEnd = 0;
  uint64_t PoolOutstandingAtExit = 0;
  uint64_t PoolUnaccounted = 0;
  bool Verified = false; ///< verifyHeap passed at shutdown.
  uint64_t ProbeNs = 0; ///< Speed-probe time around the timed window.
  unsigned Probes = 0;
  ShardStats St;
  Tracer &T; ///< The shard's span recorder for the whole run.

  explicit RoundEnv(Tracer &T) : T(T) {}
};

//===----------------------------------------------------------------------===//
// The client
//===----------------------------------------------------------------------===//

std::vector<std::string> makeKeyNames() {
  std::vector<std::string> Names;
  for (size_t I = 0; I != TableKeys; ++I)
    Names.push_back("key-" + std::to_string(I));
  return Names;
}
const std::vector<std::string> KeyNames = makeKeyNames();

/// Per-shard mutator state: the paper's guarded resources plus the
/// session driver. Lives on the shard thread between heap construction
/// and teardown.
struct World : ShardLocal {
  Shard &Self;
  RoundEnv &Env;
  ShardStats &St;
  const Workload &W;
  Heap &H;
  Tracer &T;
  Guardian PortG; ///< Port handles; drained into the port ticket queue.
  Guardian ExtG;  ///< External-block headers; drained likewise.
  ResourcePool Pool;
  GuardedHashTable Table;
  RootVector Held;    ///< Session-held ports, headers and bitmaps.
  RootVector Scratch; ///< Fresh pairs of the current store burst.
  RootVector Recent;  ///< The last few received messages.
  Root State;         ///< Session-state vector; ages old within ms.
  Root ExtTag, MsgTag;
  std::vector<std::string> Paths;
  std::optional<ScopedExtent> Extent;
  uint64_t Rng;
  uint64_t OpSeq; ///< Op id; unique across the rounds of a run.
  size_t RecentNext = 0;

  World(Shard &S, RoundEnv &Env, const Workload &W, uint64_t Seed,
        unsigned Round)
      : Self(S), Env(Env), St(Env.St), W(W), H(S.heap()), T(Env.T),
        PortG(H), ExtG(H),
        Pool(H, /*BitmapBytes=*/256, /*InitSweeps=*/4, PoolCap),
        Table(H, /*BucketCount=*/128), Held(H), Scratch(H), Recent(H),
        State(H, H.makeVector(StateSlots, Value::nil())),
        ExtTag(H, H.intern("external-block")),
        MsgTag(H, H.intern("session-msg")),
        Rng((Seed * 0x9E3779B97F4A7C15ULL) ^
            ((uint64_t{Round} << 8 | S.id()) + 1) * 0xBF58476D1CE4E5B9ULL),
        OpSeq(uint64_t{Round} << 32) {
    for (size_t I = 0; I != PortPaths; ++I)
      Paths.push_back("/s" + std::to_string(S.id()) + "/f" +
                      std::to_string(I));
    Recent.resize(RecentSlots);
    const unsigned Oldest = H.oldestGeneration();
    RoundEnv *E = &Env;
    H.addPostGcHook([E, Oldest](Heap &, const GcStats &S) {
      if (!E->InWindow)
        return;
      ShardStats &St = E->St;
      if (E->T.On)
        E->T.pause(nowNs(), S);
      St.PauseNs.record(S.DurationNanos);
      const bool Full = S.CollectedGeneration == Oldest;
      (Full ? St.FullPauseNs : St.MinorPauseNs).record(S.DurationNanos);
      ++St.C[Collections];
      St.C[FullCollections] += Full;
      St.C[BytesCopied] += S.BytesCopied;
      St.C[BytesInFromSpace] += S.BytesInFromSpace;
      St.C[RememberedScanned] += S.RememberedObjectsScanned;
      St.C[CollectPauseNs] += S.DurationNanos;
      St.C[PhaseUnattributedNs] +=
          S.DurationNanos - std::min(S.DurationNanos, S.Phases.totalNanos());
      St.C[StealAttempts] += S.StealAttempts;
      St.C[StealHits] += S.StealHits;
      for (unsigned P = 0; P != NumGcPhases; ++P)
        St.PhaseNs[P] += S.Phases.Nanos[P];
      St.MaxWorkers = std::max<uint64_t>(St.MaxWorkers, S.GcWorkersUsed);
    });
    H.setScopeCloseHook([E](Heap &, const ScopeCloseStats &S) {
      if (!E->InWindow)
        return;
      ShardStats &St = E->St;
      St.PauseNs.record(S.DurationNanos);
      St.ScopeCloseNs.record(S.DurationNanos);
      ++St.C[ScopeCloses];
      St.C[ScopeBytesEvacuated] += S.BytesEvacuated;
      St.C[ScopeBytesIn] += S.BytesInScope;
      St.C[ScopePauseNs] += S.DurationNanos;
    });
  }

  uint64_t next() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  }

  /// A boundary that also needs the time: the trace's read when
  /// tracing, a fresh read otherwise.
  uint64_t stampAt(Layer L) {
    const uint64_t Now = T.at(L);
    return Now ? Now : nowNs();
  }

  /// Records the drop time of a held port or external block.
  void stampDrop(Value V, uint64_t Now) {
    if (isPortHandle(V))
      Env.PortDrop[GuardedPortSystem::portIdOf(V)] = Now;
    else if (isRecord(V))
      Env.ExtDrop[GuardedExternalMemory::blockIdOf(V)] = Now;
  }

  void dropHeldFrom(size_t Keep) {
    const uint64_t Now = stampAt(Driver);
    for (size_t I = Keep; I != Held.size(); ++I)
      stampDrop(Held[I], Now);
    Held.truncate(Keep);
  }

  /// Guardian-delivered objects become heap-independent tickets; the
  /// drop stamp rides along so the executor can measure the lag.
  void drainToExecutor() {
    T.at(GuardianDrain);
    ++St.C[Drains];
    const size_t N =
        PortG.drain([&](Value Handle) {
          const intptr_t Id = GuardedPortSystem::portIdOf(Handle);
          T.at(Submit);
          Self.submitTicket(Env.PortQueue, Id,
                            static_cast<intptr_t>(Env.PortDrop[Id]));
          T.at(GuardianDrain);
        }) +
        ExtG.drain([&](Value Header) {
          const intptr_t Id = GuardedExternalMemory::blockIdOf(Header);
          T.at(Submit);
          Self.submitTicket(Env.ExtQueue, Id,
                            static_cast<intptr_t>(Env.ExtDrop[Id]));
          T.at(GuardianDrain);
        });
    St.C[TicketsSubmitted] += N;
    if (Env.InWindow)
      St.C[Delivered] += N;
  }

  void portOp() {
    T.at(PortsCall);
    const intptr_t Id = Env.Ports.openOutput(Paths[next() % PortPaths]);
    Env.PortDrop.resize(static_cast<size_t>(Id) + 1, 0);
    T.at(GcAlloc);
    Root Handle(H,
                H.makePortHandle(Id, static_cast<intptr_t>(PortKind::Output)));
    T.at(GuardianProtect);
    PortG.protect(Handle);
    const bool Close = next() % 2;
    T.at(PortsCall);
    for (unsigned K = 0; K != 16; ++K)
      Env.Ports.writeChar(Id, static_cast<char>('a' + K));
    if (Close)
      Env.Ports.close(Id);
    ++St.C[Protects];
    ++St.C[PortsOpened];
    if (Close)
      Env.PortDrop[Id] = stampAt(Driver); // Handle dies with this op.
    else
      Held.push_back(Handle);
  }

  bool extOp() {
    T.at(ExtCall);
    const intptr_t Id = Env.ExtMgr.allocate(64 + next() % 512);
    if (Id < 0) {
      ++St.C[ExtRefused];
      return false;
    }
    Env.ExtDrop.resize(static_cast<size_t>(Id) + 1, 0);
    T.at(GcAlloc);
    Root Header(H, H.makeRecord(ExtTag, 2, Value::fixnum(Id)));
    T.at(GuardianProtect);
    ExtG.protect(Header);
    ++St.C[Protects];
    ++St.C[ExtAllocs];
    const uint64_t R = next();
    if (R % 4 == 0) { // Early free; the ticket's freeIfLive skips it.
      T.at(ExtCall);
      Env.ExtMgr.free(Id);
      Env.ExtDrop[Id] = stampAt(Driver);
    } else if ((R >> 8) % 2) {
      Held.push_back(Header);
    } else {
      Env.ExtDrop[Id] = stampAt(Driver);
    }
    return true;
  }

  bool poolOp() {
    T.at(PoolCall);
    Root Bitmap(H, Pool.acquire());
    if (Bitmap.get().isFalse()) {
      // Every lease is out. Dropped bitmaps that aged into an older
      // generation come back only when it is collected, which scopes
      // make rare: collect everything so the guardian returns them, and
      // retry once. The op waits instead of failing.
      ++St.C[PoolExhausted];
      H.collectFull();
      Bitmap = Pool.acquire();
      if (Bitmap.get().isFalse())
        return false;
    }
    ++St.C[PoolAcquires];
    if (next() % 2)
      Pool.release(Bitmap);
    else
      Held.push_back(Bitmap);
    return true;
  }

  void tableOp() {
    const std::string &Name = KeyNames[next() % TableKeys];
    T.at(GcAlloc);
    Root Key(H, H.intern(Name));
    T.at(TableAccess);
    Table.access(Key, Value::fixnum(static_cast<intptr_t>(OpSeq)));
    ++St.C[TableAccesses];
  }

  /// 16 vectorSets into the old session-state vector, alternating
  /// fixnums and fresh pairs: half the stores need the barrier's
  /// remembered-set entry.
  void storeBurst() {
    size_t Slot[StoreBurst];
    for (size_t K = 0; K != StoreBurst; ++K)
      Slot[K] = next() % StateSlots;
    T.at(GcAlloc);
    for (size_t K = 0; K != StoreBurst / 2; ++K)
      Scratch.push_back(H.cons(Value::fixnum(static_cast<intptr_t>(K)),
                               Value::nil()));
    T.at(GcStore);
    for (size_t K = 0; K != StoreBurst; ++K)
      H.vectorSet(State, Slot[K],
                  K % 2 ? Scratch[K / 2]
                        : Value::fixnum(static_cast<intptr_t>(K)));
    Scratch.clear();
    St.C[StoreCalls] += StoreBurst;
  }

  bool sendOp() {
    T.at(GcAlloc);
    const uint64_t A0 = H.totalBytesAllocated();
    Root Msg(H);
    if (W.PayloadCells) {
      Root List(H, Value::nil());
      for (size_t C = 0; C != W.PayloadCells; ++C)
        List = H.cons(Value::fixnum(static_cast<intptr_t>(C)), List.get());
      Msg = H.makeRecord(MsgTag, 3,
                         Value::fixnum(static_cast<intptr_t>(nowNs())));
      H.recordSet(Msg, 2, List);
    } else {
      // Field 1 (and the rest) carry the send stamp; at most 28 words.
      Msg = H.makeRecord(MsgTag, 4 + next() % 24,
                         Value::fixnum(static_cast<intptr_t>(nowNs())));
    }
    St.C[SendBytes] += H.totalBytesAllocated() - A0;
    T.at(Send);
    Shard &Peer = Self.peer(1 - Self.id());
    uint64_t GiveUp = 0;
    // A full inbox is backpressure: serve our own inbox and retry, so
    // the op waits rather than fails.
    while (!Self.sendValue(Peer, Msg)) {
      ++St.C[SendRefused];
      const uint64_t Now = nowNs();
      if (!GiveUp)
        GiveUp = Now + SendRetryNs;
      else if (Now > GiveUp)
        return false;
      T.at(Recv);
      Self.pumpInbox();
      ++St.C[Pumps];
      std::this_thread::yield();
      T.at(Send);
    }
    ++St.C[MsgsSent];
    return true;
  }

  bool mixOp() {
    const uint64_t Roll = next() % 100;
    if (Roll < 25) {
      portOp();
      return true;
    }
    if (Roll < 45)
      return extOp();
    if (Roll < 65)
      return poolOp();
    if (Roll < 80) {
      tableOp();
      return true;
    }
    if (Roll < 90) {
      storeBurst();
      return true;
    }
    dropHeldFrom(Held.size() - Held.size() / 2);
    return true;
  }

  /// One op: the whole loop body, session start/end and safepoint work
  /// included, so op latency shows pauses where a client feels them.
  bool runOp(size_t InSession, bool LastOfSession) {
    if (InSession == 0 && W.Scoped) {
      T.at(GcScope);
      Extent.emplace(H);
    }
    {
      // Short-lived churn, dead by the next op, so the generational
      // collector runs for real under the session load.
      T.at(GcAlloc);
      Root Junk(H, Value::nil());
      for (unsigned K = 0; K != 8; ++K)
        Junk = H.cons(Value::fixnum(static_cast<intptr_t>(K)), Junk.get());
    }
    const bool Ok = W.SendPct && next() % 100 < W.SendPct ? sendOp() : mixOp();
    if (InSession % DrainEvery == DrainEvery - 1) {
      drainToExecutor();
      T.at(Recv);
      Self.pumpInbox();
      ++St.C[Pumps];
    }
    if (LastOfSession) {
      dropHeldFrom(0);
      if (Extent) {
        T.at(GcScope);
        Extent.reset();
      }
      drainToExecutor();
    }
    return Ok;
  }

  /// The closed-loop client: sessions back to back until \p Ops ops.
  void runClient(size_t Ops, bool Traced) {
    const uint64_t Alloc0 = H.totalBytesAllocated();
    const uint64_t BarrierExec0 = H.barriersExecuted();
    const uint64_t BarrierElided0 = H.barriersElided();
    const uint64_t Removed0 = Table.removedTotal();
    Env.ProbeNs += Probe.run();
    T.On = Traced;
    Env.InWindow = true;
    uint64_t T0 = nowNs();
    Env.ClientStart = T0;
    for (size_t I = 0; I != Ops; ++I) {
      const size_t InSession = I % SessionOps;
      T.beginOp(OpSeq, T0);
      ++St.C[OpsAttempted];
      if (!runOp(InSession, InSession == SessionOps - 1 || I + 1 == Ops))
        ++St.C[OpsFailed];
      const uint64_t T1 = nowNs();
      T.endOp(T0, T1);
      St.OpNs.record(T1 - T0);
      ++OpSeq;
      T0 = T1;
    }
    Env.ClientEnd = T0;
    Env.InWindow = false;
    T.On = false;
    Env.ProbeNs += Probe.run();
    Env.Probes += 2;
    St.C[WallNs] += Env.ClientEnd - Env.ClientStart;
    St.C[AllocBytes] += H.totalBytesAllocated() - Alloc0;
    St.C[BarriersExecuted] += H.barriersExecuted() - BarrierExec0;
    St.C[BarriersElided] += H.barriersElided() - BarrierElided0;
    St.C[TableRemoved] += Table.removedTotal() - Removed0;
  }

  void onMessage(Shard &, Value V) override {
    ++St.C[MsgsSeen];
    if (Env.InWindow && isRecord(V))
      St.MsgNs.record(nowNs() -
                      static_cast<uint64_t>(objectField(V, 1).asFixnum()));
    Recent[RecentNext++ % RecentSlots] = V;
  }

  void onShutdown(Shard &) override {
    // Prove the heap sound, drop everything, collect, ticket what the
    // guardians return, and settle the pool's books before the heap
    // goes away. verifyHeap aborts the process on a broken invariant.
    Held.clear();
    for (Value &V : Recent.slots())
      V = Value::nil();
    H.verifyHeap();
    H.collectFull();
    H.collectFull();
    drainToExecutor();
    Pool.refillFreeList();
    Env.PoolOutstandingAtExit = Pool.outstanding();
    const uint64_t Accounted = Pool.outstanding() + Pool.freeListSize();
    Env.PoolUnaccounted = Pool.initializations() > Accounted
                              ? Pool.initializations() - Accounted
                              : 0;
    Pool.shutdown();
    H.verifyHeap();
    Env.Verified = true;
  }
};

//===----------------------------------------------------------------------===//
// Rounds
//===----------------------------------------------------------------------===//

struct Options {
  const Workload *W = nullptr;
  uint64_t Seed = 1;
  uint64_t Ops = 0; ///< Total across clients and rounds.
  std::string TraceOut;
};

using Metrics = std::vector<std::pair<std::string, double>>;

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N == 0 ? 0.0 : N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// One timed round's times at the probe's reference speed. A shard's
/// samples and window are divided by that shard's own slowdown (its mean
/// probe time over ProbeRefNs), since the two shards of a mesh run on
/// cores that other tenants may load unequally.
struct AtRef {
  Histo OpNs, PauseNs, MsgNs;
  double WallNs = 0;   ///< The slowest shard's window.
  double Slowdown = 0; ///< Mean over shards.
};

/// The end-to-end numbers of one timed round. A run reports the median
/// over its rounds, which a burst of machine noise inside one round
/// cannot move. Times come from \p R; the executor's lag and the
/// process's CPU time are divided by the mean slowdown. Ratios, counts
/// and sizes need no correction.
Metrics endToEnd(const ShardStats &S, const AtRef &R, const Histo &LagNs,
                 double CpuSec, double PeakRssMb) {
  const double Attempted = static_cast<double>(S.C[OpsAttempted]);
  const double Failed = static_cast<double>(S.C[OpsFailed]);
  return {
      {"throughput_ops_s", ratio(Attempted - Failed, R.WallNs * 1e-9)},
      {"op_p50_us", R.OpNs.quantile(0.50) / 1e3},
      {"op_p99_us", R.OpNs.quantile(0.99) / 1e3},
      {"gc_pause_p50_us", R.PauseNs.quantile(0.50) / 1e3},
      {"gc_pause_p99_us", R.PauseNs.quantile(0.99) / 1e3},
      {"gc_time_frac",
       ratio(static_cast<double>(S.C[CollectPauseNs] + S.C[ScopePauseNs]),
             static_cast<double>(S.C[WallNs]))},
      {"finalize_lag_p50_ms", LagNs.quantile(0.50) / 1e6 / R.Slowdown},
      {"finalize_lag_p99_ms", LagNs.quantile(0.99) / 1e6 / R.Slowdown},
      {"msg_p50_us", R.MsgNs.quantile(0.50) / 1e3},
      {"msg_p99_us", R.MsgNs.quantile(0.99) / 1e3},
      {"peak_rss_mb", PeakRssMb},
      {"cpu_s_per_mop", ratio(CpuSec / R.Slowdown, Attempted / 1e6)},
      {"failed_op_frac", ratio(Failed, Attempted)},
      {"machine.slowdown", R.Slowdown},
  };
}

/// What main folds in from every round.
struct RunTotals {
  uint64_t Attempted = 0, Failed = 0, OpSamples = 0; ///< Every round.
  std::vector<Metrics> Rounds;       ///< endToEnd() of untraced rounds.
  std::vector<Metrics> TracedRounds; ///< endToEnd() of traced rounds.
  std::vector<double> SetupSec;
  /// The rounds the per-layer metrics come from: the traced ones when
  /// tracing, every round otherwise.
  ShardStats Layer;
  uint64_t Executed = 0, MaxPending = 0, BackpressureWaits = 0;
  LatencyRecorder ExecWaitNs, ExecRunNs;
  uint64_t DonatedSegments = 0;
  uint64_t MaxThreads = 0;
  std::vector<std::string> Failures;
};

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// Resident set size now. Sampled, because the kernel's high-water mark
/// is only updated at some unmaps and misses peaks freed in between.
double residentMb() {
  std::ifstream In("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  In >> Size >> Resident;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t processThreads() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return std::strtoull(Line.c_str() + 8, nullptr, 10);
  return 0;
}

/// Builds a runtime, runs \p OpsPerClient ops on every client (none for
/// a set-up-only round), shuts down, and audits. A traced run traces
/// every other round, so its untraced rounds measure the tracing
/// overhead under the same machine conditions.
void runRound(const Options &O, unsigned Round, uint64_t OpsPerClient,
              std::vector<std::unique_ptr<Tracer>> &Tracers, RunTotals &Tot) {
  const bool TraceRun = !O.TraceOut.empty();
  const bool TraceRound = TraceRun && Round % 2 == 1;
  const bool LayerRound = TraceRound || !TraceRun;
  const Workload &W = *O.W;
  std::vector<std::unique_ptr<RoundEnv>> Envs;
  for (unsigned I = 0; I != W.Shards; ++I)
    Envs.push_back(std::make_unique<RoundEnv>(*Tracers[I]));
  LagLedger Lag;
  // A set-up-only round has no timed window, so none of its tickets
  // count.
  Lag.WindowEnd.store(OpsPerClient ? UINT64_MAX : 0, std::memory_order_relaxed);

  ShardRuntime::Config Cfg;
  Cfg.ShardCount = W.Shards;
  // Library defaults except these two, the values tools/loadgen uses:
  // a 64 KiB gen-0 budget makes the generational machinery run under
  // session load instead of deferring everything to shutdown.
  Cfg.HeapCfg.ArenaBytes = 64u * 1024 * 1024;
  Cfg.HeapCfg.Gen0CollectBytes = 64u * 1024;
  Cfg.MailboxCapacity = 1024;

  // Return what earlier rounds freed to the system, so this round's
  // footprint does not depend on which allocator arenas its new threads
  // happen to get.
  malloc_trim(0);
  const uint64_t SetupStart = nowNs();
  ShardRuntime RT(Cfg, [&](Shard &S) {
    return std::make_unique<World>(S, *Envs[S.id()], W, O.Seed, Round);
  });
  for (unsigned I = 0; I != W.Shards; ++I) {
    RoundEnv &Env = *Envs[I];
    Env.PortQueue = RT.executor().registerQueue(
        "ports/" + std::to_string(I),
        [&Env, &Lag](const FinalizationTicket &T) {
          Lag.onActionStart(T);
          if (Env.Ports.isOpen(T.Payload)) {
            Env.Ports.flush(T.Payload);
            Env.Ports.close(T.Payload);
          }
          return true;
        });
    Env.ExtQueue = RT.executor().registerQueue(
        "extmem/" + std::to_string(I),
        [&Env, &Lag](const FinalizationTicket &T) {
          Lag.onActionStart(T);
          Env.ExtMgr.freeIfLive(T.Payload);
          return true;
        });
  }
  // Set-up ends when every shard has built its heap and client state
  // and can take its first op.
  for (unsigned I = 0; I != W.Shards; ++I)
    RT.shard(I).run([](Shard &) {});
  Tot.SetupSec.push_back(static_cast<double>(nowNs() - SetupStart) * 1e-9);

  uint64_t RoundStart = 0;
  double CpuSec = 0, PeakRssMb = 0;
  if (OpsPerClient) {
    std::mutex DoneM;
    std::condition_variable DoneCv;
    unsigned Done = 0;
    const double Cpu0 = cpuSeconds();
    RoundStart = nowNs();
    for (unsigned I = 0; I != W.Shards; ++I)
      RT.shard(I).post([&](Shard &S) {
        static_cast<World *>(S.local())->runClient(OpsPerClient, TraceRound);
        std::lock_guard<std::mutex> Lock(DoneM);
        ++Done;
        DoneCv.notify_one();
      });
    {
      std::unique_lock<std::mutex> Lock(DoneM);
      while (!DoneCv.wait_for(Lock, std::chrono::milliseconds(5),
                              [&] { return Done == W.Shards; })) {
        Lock.unlock();
        PeakRssMb = std::max(PeakRssMb, residentMb());
        Lock.lock();
      }
    }
    Lag.WindowEnd.store(nowNs(), std::memory_order_relaxed);
    PeakRssMb = std::max(PeakRssMb, residentMb());
    CpuSec = cpuSeconds() - Cpu0;
    if (LayerRound)
      Tot.MaxThreads = std::max(Tot.MaxThreads, processThreads());
  }
  RT.shutdown();

  //===--- The audit ------------------------------------------------------===//

  auto Audit = [&](bool Ok, const std::string &What) {
    if (!Ok)
      Tot.Failures.push_back("round " + std::to_string(Round) + ": " + What);
  };
  ShardStats Sum;
  for (unsigned I = 0; I != W.Shards; ++I) {
    RoundEnv &Env = *Envs[I];
    Sum.merge(Env.St);
    const std::string Tag = "shard " + std::to_string(I) + ": ";
    Audit(Env.Verified, Tag + "shutdown did not complete");
    Audit(Env.Ports.totalOpened() == Env.Ports.totalClosed(),
          Tag + "ports opened (" + std::to_string(Env.Ports.totalOpened()) +
              ") != closed (" + std::to_string(Env.Ports.totalClosed()) + ")");
    Audit(Env.Ports.openPortCount() == 0, Tag + "ports still open");
    Audit(Env.ExtMgr.liveBlocks() == 0,
          Tag + std::to_string(Env.ExtMgr.liveBlocks()) +
              " external blocks leaked");
    Audit(Env.ExtMgr.doubleFrees() == 0, Tag + "external double frees");
    Audit(Env.PoolOutstandingAtExit == 0,
          Tag + "pool bitmaps outstanding at exit");
    Audit(Env.PoolUnaccounted == 0, Tag + "pool bitmaps unaccounted");
  }
  Audit(RT.executor().quarantined().empty(), "tickets quarantined");
  const FinalizationExecutor::Stats ES = RT.executor().stats();
  Audit(ES.Executed + ES.Quarantined == ES.Submitted,
        "executor ledger: executed (" + std::to_string(ES.Executed) +
            ") + quarantined (" + std::to_string(ES.Quarantined) +
            ") != submitted (" + std::to_string(ES.Submitted) + ")");
  Audit(Sum.C[TicketsSubmitted] == ES.Submitted,
        "tickets submitted by the driver (" +
            std::to_string(Sum.C[TicketsSubmitted]) +
            ") != executor submissions (" + std::to_string(ES.Submitted) +
            ")");
  uint64_t Received = 0, Donated = 0;
  for (const Shard::Report &R : RT.reports()) {
    Received += R.MessagesReceived;
    Donated += R.TransferDonatedSegments;
  }
  Audit(Sum.C[MsgsSent] == Received && Received == Sum.C[MsgsSeen],
        "messages sent (" + std::to_string(Sum.C[MsgsSent]) +
            ") != received (" + std::to_string(Received) + ")");
  Audit(Sum.OpNs.count() == Sum.C[OpsAttempted],
        "op-latency samples (" + std::to_string(Sum.OpNs.count()) +
            ") != ops attempted (" + std::to_string(Sum.C[OpsAttempted]) +
            ")");
  Audit(Lag.Unstamped == 0, std::to_string(Lag.Unstamped) +
                                " in-window tickets carried no drop stamp");

  Tot.Attempted += Sum.C[OpsAttempted];
  Tot.Failed += Sum.C[OpsFailed];
  Tot.OpSamples += Sum.OpNs.count();
  if (!OpsPerClient)
    return;
  AtRef Ref;
  for (const auto &Env : Envs) {
    const double Slowdown = static_cast<double>(Env->ProbeNs) /
                            (static_cast<double>(Env->Probes) * ProbeRefNs);
    Ref.OpNs.mergeScaled(Env->St.OpNs, 1 / Slowdown);
    Ref.PauseNs.mergeScaled(Env->St.PauseNs, 1 / Slowdown);
    Ref.MsgNs.mergeScaled(Env->St.MsgNs, 1 / Slowdown);
    Ref.WallNs = std::max(
        Ref.WallNs, static_cast<double>(Env->ClientEnd - RoundStart) / Slowdown);
    Ref.Slowdown += Slowdown / static_cast<double>(Envs.size());
    // The probes ran inside the CPU-time window; their own time is not
    // the runtime's.
    CpuSec -= static_cast<double>(Env->ProbeNs) * 1e-9;
  }
  (TraceRound ? Tot.TracedRounds : Tot.Rounds)
      .push_back(endToEnd(Sum, Ref, Lag.LagNs, CpuSec, PeakRssMb));
  if (!LayerRound)
    return;
  Tot.Layer.merge(Sum);
  Tot.Executed += ES.Executed;
  Tot.MaxPending = std::max(Tot.MaxPending, ES.MaxPending);
  Tot.BackpressureWaits += ES.BackpressureWaits;
  Tot.ExecWaitNs.merge(ES.WaitNanos);
  Tot.ExecRunNs.merge(ES.RunNanos);
  Tot.DonatedSegments += Donated;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// The median over rounds of every endToEnd() metric.
Metrics medianOverRounds(const std::vector<Metrics> &Rounds) {
  Metrics M;
  for (size_t I = 0; !Rounds.empty() && I != Rounds[0].size(); ++I) {
    std::vector<double> PerRound;
    for (const Metrics &R : Rounds)
      PerRound.push_back(R[I].second);
    M.push_back({Rounds[0][I].first, median(PerRound)});
  }
  return M;
}

double throughputOf(const Metrics &M) {
  for (const auto &[Name, Value] : M)
    if (Name == "throughput_ops_s")
      return Value;
  return 0;
}

/// Every metric: the end-to-end ones as medians over the untraced
/// rounds, the per-layer ones over Tot.Layer (self times only when
/// traced).
Metrics runMetrics(const RunTotals &Tot,
                   const std::vector<std::unique_ptr<Tracer>> &Tracers,
                   bool Traced) {
  const ShardStats &S = Tot.Layer;
  uint64_t Self[NumLayers] = {}, PauseSelf = 0;
  Histo SendNs, SubmitNs;
  for (const auto &T : Tracers) {
    for (unsigned L = 0; L != NumLayers; ++L)
      Self[L] += T->Self[L];
    PauseSelf += T->PauseNs;
    SendNs.merge(T->SendNs);
    SubmitNs.merge(T->SubmitNs);
  }
  auto Count = [&](Counter C) { return static_cast<double>(S.C[C]); };
  auto PerCall = [&](Layer L, Counter C) {
    return ratio(static_cast<double>(Self[L]), Count(C));
  };
  double LayerSelf = static_cast<double>(PauseSelf);
  for (unsigned L = Driver + 1; L != NumLayers; ++L)
    LayerSelf += static_cast<double>(Self[L]);

  Metrics M = {{"setup_s", median(Tot.SetupSec)}};
  const Metrics E2E = medianOverRounds(Tot.Rounds);
  M.insert(M.end(), E2E.begin(), E2E.end());
  const Metrics Layers = {
      {"gc.alloc.bytes", Count(AllocBytes)},
      {"gc.alloc.self_ns_per_op",
       ratio(static_cast<double>(Self[GcAlloc]), Count(OpsAttempted))},
      {"gc.store.calls", Count(StoreCalls)},
      {"gc.store.ns_per_call", PerCall(GcStore, StoreCalls)},
      {"gc.store.barriers_executed", Count(BarriersExecuted)},
      {"gc.store.barriers_elided", Count(BarriersElided)},
      {"gc.collect.count", Count(Collections)},
      {"gc.collect.full_count", Count(FullCollections)},
      {"gc.collect.minor_pause_p99_us", S.MinorPauseNs.quantile(0.99) / 1e3},
      {"gc.collect.full_pause_p99_us", S.FullPauseNs.quantile(0.99) / 1e3},
      {"gc.collect.bytes_copied", Count(BytesCopied)},
      {"gc.collect.survival_frac",
       ratio(Count(BytesCopied), Count(BytesInFromSpace))},
      {"gc.collect.remembered_scanned", Count(RememberedScanned)},
  };
  M.insert(M.end(), Layers.begin(), Layers.end());
  for (unsigned P = 0; P != NumGcPhases; ++P)
    M.push_back({std::string("gc.collect.phase.") +
                     gcPhaseName(static_cast<GcPhase>(P)) + "_ns",
                 static_cast<double>(S.PhaseNs[P])});
  const Metrics Rest = {
      {"gc.collect.phase_unattributed_ns", Count(PhaseUnattributedNs)},
      {"gc.collect.workers", static_cast<double>(S.MaxWorkers)},
      {"gc.collect.steal_hit_frac",
       ratio(Count(StealHits), Count(StealAttempts))},
      {"gc.scope.closes", Count(ScopeCloses)},
      {"gc.scope.close_p99_us", S.ScopeCloseNs.quantile(0.99) / 1e3},
      {"gc.scope.bytes_evacuated", Count(ScopeBytesEvacuated)},
      {"gc.scope.reclaimed_frac",
       ratio(Count(ScopeBytesIn) - Count(ScopeBytesEvacuated),
             Count(ScopeBytesIn))},
      {"core.guardian.protects", Count(Protects)},
      {"core.guardian.drain_ns", PerCall(GuardianDrain, Drains)},
      {"core.guardian.delivered", Count(Delivered)},
      {"core.table.accesses", Count(TableAccesses)},
      {"core.table.access_ns", PerCall(TableAccess, TableAccesses)},
      {"core.table.removed", Count(TableRemoved)},
      {"runtime.send.calls", Count(MsgsSent)},
      {"runtime.send.refused", Count(SendRefused)},
      {"runtime.send.p50_us", SendNs.quantile(0.50) / 1e3},
      {"runtime.send.p99_us", SendNs.quantile(0.99) / 1e3},
      {"runtime.send.bytes", Count(SendBytes)},
      {"runtime.recv.messages", static_cast<double>(S.MsgNs.count())},
      {"runtime.recv.pump_self_ns", PerCall(Recv, Pumps)},
      {"runtime.transfer.donated_segments",
       static_cast<double>(Tot.DonatedSegments)},
      {"runtime.executor.tickets", static_cast<double>(Tot.Executed)},
      {"runtime.executor.wait_p99_us",
       static_cast<double>(Tot.ExecWaitNs.p99()) / 1e3},
      {"runtime.executor.run_p99_us",
       static_cast<double>(Tot.ExecRunNs.p99()) / 1e3},
      {"runtime.executor.max_pending", static_cast<double>(Tot.MaxPending)},
      {"runtime.executor.backpressure_waits",
       static_cast<double>(Tot.BackpressureWaits)},
      {"runtime.executor.submit_p99_us", SubmitNs.quantile(0.99) / 1e3},
      {"resource.pool.exhausted", Count(PoolExhausted)},
      {"resource.pool.ns_per_call", PerCall(PoolCall, PoolAcquires)},
      {"resource.ext.refused", Count(ExtRefused)},
      {"resource.ext.ns_per_call", PerCall(ExtCall, ExtAllocs)},
      {"io.ports.ns_per_call", PerCall(PortsCall, PortsOpened)},
      {"proc.threads", static_cast<double>(Tot.MaxThreads)},
      {"budget.unattributed_frac",
       Traced ? 1.0 - ratio(LayerSelf, Count(WallNs)) : 0.0},
      // How much faster the untraced rounds ran than the traced ones.
      {"trace.overhead_frac",
       Traced ? ratio(throughputOf(E2E),
                      throughputOf(medianOverRounds(Tot.TracedRounds))) -
                    1.0
              : 0.0},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<std::unique_ptr<Tracer>> &Tracers) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (size_t Sh = 0; Sh != Tracers.size(); ++Sh) {
    for (const SpanRec &S : Tracers[Sh]->Spans) {
      std::string Name;
      if (S.Kind == KindOp)
        Name = "op";
      else if (S.Kind == KindPause)
        Name = "gc.collect";
      else if (S.Kind >= KindPhase)
        Name = std::string("gc.collect.") +
               gcPhaseName(static_cast<GcPhase>(S.Kind - KindPhase));
      else
        Name = LayerNames[S.Kind];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   First ? "" : ",\n", Name.c_str(), Sh,
                   static_cast<double>(S.Start) / 1e3,
                   static_cast<double>(S.End - S.Start) / 1e3,
                   static_cast<unsigned long long>(S.Op));
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --ops N "
               "[--trace-out PATH]\n"
               "workloads:",
               Argv0);
  for (const Workload &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const std::string Val = Argv[++I];
    char *End = nullptr;
    const unsigned long long N = std::strtoull(Val.c_str(), &End, 10);
    const bool IsNum = !Val.empty() && *End == '\0';
    if (Arg == "--workload") {
      for (const Workload &W : Workloads)
        if (Val == W.Name)
          O.W = &W;
      if (!O.W)
        return false;
    } else if (Arg == "--seed" && IsNum) {
      O.Seed = N;
    } else if (Arg == "--ops" && IsNum) {
      O.Ops = N;
    } else if (Arg == "--trace-out") {
      O.TraceOut = Val;
    } else {
      return false;
    }
  }
  return O.W && O.Ops > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage(Argv[0]);
    return 2;
  }
  const Workload &W = *O.W;
  const uint64_t OpsPerClient =
      std::max<uint64_t>(1, O.Ops / (uint64_t{Rounds} * W.Shards));
  const bool Traced = !O.TraceOut.empty();

  std::vector<std::unique_ptr<Tracer>> Tracers;
  for (unsigned I = 0; I != W.Shards; ++I) {
    Tracers.push_back(std::make_unique<Tracer>());
    if (Traced) {
      // ~4096 sampled ops per shard, over the traced half of the
      // rounds, fill the trace; every traced op still feeds the
      // per-layer totals. An odd stride reaches the drain ops, which
      // sit at odd positions of a session.
      Tracers.back()->Spans.reserve(1u << 16);
      Tracers.back()->SampleEvery = OpsPerClient * (Rounds / 2) / 4096 | 1;
    }
  }
  RunTotals Tot;
  for (unsigned R = 0; R != Rounds; ++R)
    runRound(O, R, OpsPerClient, Tracers, Tot);
  for (unsigned R = Rounds; R != SetupSamples; ++R)
    runRound(O, R, 0, Tracers, Tot);
  if (Traced && !writeChromeTrace(O.TraceOut, Tracers))
    Tot.Failures.push_back("cannot write " + O.TraceOut);

  const Metrics M = runMetrics(Tot, Tracers, Traced);
  std::string Out = "{\"workload\": \"" + std::string(W.Name) +
                    "\", \"seed\": " + std::to_string(O.Seed) +
                    ", \"traced\": " + (Traced ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Tot.Attempted) +
                    ", \"failed\": " + std::to_string(Tot.Failed) +
                    ", \"op_samples\": " + std::to_string(Tot.OpSamples) +
                    ", \"audit\": [";
  for (size_t I = 0; I != Tot.Failures.size(); ++I)
    Out += (I ? ", \"" : "\"") + jsonEscape(Tot.Failures[I]) + "\"";
  Out += "], \"metrics\": {";
  for (size_t I = 0; I != M.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M[I].second);
    Out += (I ? ", \"" : "\"") + M[I].first + "\": " + Buf;
  }
  Out += "}}";
  for (const std::string &F : Tot.Failures)
    std::fprintf(stderr, "gcbench: AUDIT FAILURE: %s\n", F.c_str());
  std::printf("%s\n", Out.c_str());
  return Tot.Failures.empty() ? 0 : 1;
}

//===- tools/loadgen/loadgen.cpp - Shard runtime load driver -------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session-oriented load driver for the shard runtime: N client
/// sessions per shard x M shards, each session churning the paper's
/// guarded resources — ports (Section 3), guarded hash tables
/// (Figure 1), pooled bitmaps and external memory (Section 6's
/// "locatives and weak pairs won't do this" use cases) — while shards
/// exchange deep-copied messages and the FinalizationExecutor runs
/// every clean-up action off the mutator threads.
///
/// At exit the driver audits the books: every port opened was closed,
/// every external block allocated was freed, every pool bitmap is
/// accounted for (created == finalized + free-listed), and nothing was
/// quarantined unexpectedly. Any discrepancy is a nonzero exit — this
/// binary doubles as the runtime's end-to-end accounting test and as
/// the shard-scaling benchmark (scripts/bench.sh --loadgen).
///
///   loadgen --shards 8 --sessions 16 --ops 300 --seed 7
///           --think-time-us 200 --fail-rate 5 --json out.json
///           --trace fleet.json --profile heap.folded
///           --slo-max-pause-us 20000 --slo-op-p99-us 5000
///           --slo-mmu-floor-pct 50
///
/// --think-time-us simulates client think time between sessions: with
/// it, sessions are open-loop and aggregate throughput scales with
/// shard count even on a single core (sleeping shards need no CPU);
/// without it the run is CPU-bound and scaling is limited by cores.
/// --fail-rate injects one transient failure into that percentage of
/// finalization tickets, exercising the executor's retry/backoff path
/// without perturbing the accounting (retries succeed).
///
/// Observability: --trace writes the merged fleet Chrome trace (every
/// shard's event ring on one clock, flow arrows from msg-send to
/// msg-recv and from ticket-submit to the executor's finalize span);
/// --profile enables the sampled allocation-site profiler on every
/// shard and writes the concatenated collapsed stacks; the --slo-*
/// flags set SLO targets whose verdict is printed and emitted into the
/// bench JSON (slo_pass plus violation counters).
///
//===----------------------------------------------------------------------===//

#include "core/GuardedHashTable.h"
#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "telemetry/Aggregate.h"
#include "telemetry/SloLedger.h"
#include "io/GuardedPorts.h"
#include "io/PortTable.h"
#include "object/Layout.h"
#include "resource/ExternalMemory.h"
#include "resource/ResourcePool.h"
#include "runtime/Shard.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace gengc;
using namespace gengc::runtime;

namespace {

struct Options {
  size_t Shards = 1;
  size_t Sessions = 32;  ///< Client sessions per shard.
  size_t Ops = 200;      ///< Operations per session.
  uint64_t Seed = 1;
  unsigned ThinkTimeUs = 0; ///< Sleep per session (open-loop clients).
  unsigned FailRatePct = 0; ///< Transient ticket-failure injection.
  bool Scoped = false;      ///< Run each session inside a request scope.
  size_t PayloadBytes = 0;  ///< Bulk payload attached to each message.
  bool Donate = false;      ///< Enable zero-copy segment donation sends.
  std::string JsonPath;     ///< Google-Benchmark-format output file.
  std::string TracePath;    ///< Merged fleet Chrome trace output.
  std::string ProfilePath;  ///< Collapsed allocation-site stacks output.
  SloTargets Slo;           ///< --slo-* targets (0 = clause disabled).
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards N] [--sessions N] [--ops N] [--seed N]\n"
               "          [--think-time-us N] [--fail-rate PCT]\n"
               "          [--scoped] [--json PATH]\n"
               "          [--payload-bytes N] [--donate on|off]\n"
               "          [--trace PATH] [--profile PATH]\n"
               "          [--slo-max-pause-us N] [--slo-pause-p99-us N]\n"
               "          [--slo-op-p99-us N] [--slo-mmu-floor-pct N]\n",
               Argv0);
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextInt = [&](uint64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    uint64_t V = 0;
    if (Arg == "--shards" && NextInt(V))
      Opt.Shards = V;
    else if (Arg == "--sessions" && NextInt(V))
      Opt.Sessions = V;
    else if (Arg == "--ops" && NextInt(V))
      Opt.Ops = V;
    else if (Arg == "--seed" && NextInt(V))
      Opt.Seed = V;
    else if (Arg == "--think-time-us" && NextInt(V))
      Opt.ThinkTimeUs = static_cast<unsigned>(V);
    else if (Arg == "--fail-rate" && NextInt(V))
      Opt.FailRatePct = static_cast<unsigned>(V);
    else if (Arg == "--scoped")
      Opt.Scoped = true;
    else if (Arg == "--payload-bytes" && NextInt(V))
      Opt.PayloadBytes = V;
    else if (Arg == "--donate" && I + 1 < Argc) {
      std::string Mode = Argv[++I];
      if (Mode != "on" && Mode != "off") {
        usage(Argv[0]);
        return false;
      }
      Opt.Donate = Mode == "on";
    } else if (Arg == "--json" && I + 1 < Argc)
      Opt.JsonPath = Argv[++I];
    else if (Arg == "--trace" && I + 1 < Argc)
      Opt.TracePath = Argv[++I];
    else if (Arg == "--profile" && I + 1 < Argc)
      Opt.ProfilePath = Argv[++I];
    else if (Arg == "--slo-max-pause-us" && NextInt(V))
      Opt.Slo.PauseMaxNanos = V * 1000;
    else if (Arg == "--slo-pause-p99-us" && NextInt(V))
      Opt.Slo.PauseP99Nanos = V * 1000;
    else if (Arg == "--slo-op-p99-us" && NextInt(V))
      Opt.Slo.OpP99Nanos = V * 1000;
    else if (Arg == "--slo-mmu-floor-pct" && NextInt(V))
      Opt.Slo.MmuFloor = static_cast<double>(V) / 100.0;
    else {
      usage(Argv[0]);
      return false;
    }
  }
  if (Opt.Shards == 0 || Opt.FailRatePct > 100) {
    usage(Argv[0]);
    return false;
  }
  return true;
}

/// Injects exactly one failure per selected ticket: the first attempt
/// fails, every retry succeeds, so accounting stays exact while the
/// retry/backoff machinery gets real work.
struct TransientFailInjector {
  unsigned RatePct;
  std::mutex M;
  std::unordered_set<uint64_t> FailedOnce;

  explicit TransientFailInjector(unsigned RatePct) : RatePct(RatePct) {}

  bool shouldFail(const FinalizationTicket &T) {
    if (RatePct == 0)
      return false;
    uint64_t Mix = (T.Seq + 1) * UINT64_C(0x9E3779B97F4A7C15);
    if ((Mix >> 32) % 100 >= RatePct)
      return false;
    std::lock_guard<std::mutex> Lock(M);
    return FailedOnce.insert(T.Seq).second;
  }
};

/// Counters a shard's World exports before it is destroyed on the
/// shard thread (the ShardLocal dies with the heap; these outlive it).
struct WorldCounters {
  uint64_t Ops = 0;
  uint64_t Sessions = 0;
  uint64_t PortsOpened = 0;
  uint64_t ExplicitCloses = 0;
  uint64_t ExtAllocs = 0;
  uint64_t ExtExplicitFrees = 0;
  uint64_t PoolAcquires = 0;
  uint64_t PoolExhaustions = 0;
  uint64_t PoolOutstandingAtExit = 0;
  uint64_t PoolUnaccounted = 0; ///< inits - (free list + outstanding).
  uint64_t TableAccesses = 0;
  uint64_t TableRemoved = 0;
  uint64_t MessagesSent = 0;
  uint64_t SendsRefused = 0; ///< Full inbox (backpressure), not an error.
};

/// Everything a shard needs that must OUTLIVE its heap: the external
/// (non-collected) resource state and the executor queue ids. Owned by
/// main; referenced by the shard's World and by executor actions.
struct ShardEnv {
  MemoryFileSystem FS;
  PortTable Ports{FS};
  ExternalMemoryManager ExtMgr;
  FinalizationExecutor::QueueId PortQueue = 0;
  FinalizationExecutor::QueueId ExtQueue = 0;
  WorldCounters Out;
  /// Request-scope totals, copied out in onShutdown before the shard
  /// heap dies. All-zero unless --scoped.
  ScopeTotals Scope;
  /// Per-op latency, recorded by the shard thread during sessions and
  /// merged into the fleet recorder after shutdown.
  LatencyRecorder OpLatency;
  /// Collapsed allocation-site stacks, copied out before the shard
  /// heap (and its profiler) dies. Empty when profiling is off.
  std::string ProfileCollapsed;
  uint64_t SampledSites = 0;
};

/// Per-shard mutator state: the guarded resources of the paper, plus a
/// session driver. Lives on the shard thread between Heap construction
/// and teardown.
struct World : ShardLocal {
  Shard &Self;
  ShardEnv &Env;
  const Options &Opt;
  Heap &H;
  Guardian PortG; ///< Port handles; drained into the port ticket queue.
  Guardian ExtG;  ///< External-block headers; drained likewise.
  ResourcePool Pool;
  GuardedHashTable Table;
  RootVector Held; ///< Session-held resources (ports/headers/bitmaps).
  uint64_t Rng;
  WorldCounters C;
  uint64_t MessagesSeen = 0;

  World(Shard &S, ShardEnv &Env, const Options &Opt)
      : Self(S), Env(Env), Opt(Opt), H(S.heap()), PortG(H), ExtG(H),
        Pool(H, /*BitmapBytes=*/256, /*InitSweeps=*/4, /*MaxOutstanding=*/64),
        Table(H, /*BucketCount=*/128), Held(H),
        Rng(Opt.Seed * UINT64_C(0x9E3779B97F4A7C15) + S.id() + 1) {}

  uint64_t next() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  }

  /// The safepoint drain: converts every guardian-delivered object into
  /// a heap-independent ticket and hands it to the executor. This is
  /// the runtime's analogue of Section 3's close-dropped-ports, with
  /// the actual closing moved off the mutator hot path.
  void drainToExecutor() {
    // submitTicket (not executor().submit) so every ticket carries a
    // trace span and shows as a causal arrow in the fleet trace.
    PortG.drain([&](Value Handle) {
      Self.submitTicket(Env.PortQueue, GuardedPortSystem::portIdOf(Handle));
    });
    ExtG.drain([&](Value Header) {
      Self.submitTicket(Env.ExtQueue,
                        GuardedExternalMemory::blockIdOf(Header));
    });
  }

  void onMessage(Shard &, Value V) override {
    // Cross-shard traffic lands in the guarded table: remote session
    // records become associations whose keys this shard may drop.
    ++MessagesSeen;
    if (isRecord(V)) {
      Value Key = Value::fixnum(objectField(V, 1).asFixnum() % 512);
      Table.access(Key, V);
    }
  }

  void runSession() {
    // --scoped: the whole session runs inside one request extent. Ops
    // allocate into the scope's private nursery; whatever escapes into
    // the session-spanning structures (Held, the guarded table, other
    // shards' inboxes) graduates at close, and the rest of the
    // session's garbage is reclaimed untraced. Guardian-protected
    // handles the session dropped are delivered by the close itself,
    // so the post-session drain below still tickets them.
    std::optional<ScopedExtent> Extent;
    if (Opt.Scoped)
      Extent.emplace(H);
    size_t Mark = Held.size();
    for (size_t Op = 0; Op != Opt.Ops; ++Op) {
      ++C.Ops;
      const auto OpStart = std::chrono::steady_clock::now();
      // Ordinary mutator churn alongside the guarded resources: a
      // short-lived list per op, dead by the next iteration, so the
      // generational collector runs for real under the session load.
      {
        Root Junk(H, Value::nil());
        for (unsigned K = 0; K != 8; ++K)
          Junk = H.cons(Value::fixnum(static_cast<intptr_t>(K)), Junk.get());
      }
      uint64_t Roll = next() % 100;
      if (Roll < 25) { // Ports: open, write, then close explicitly or drop.
        intptr_t Id = Env.Ports.openOutput("/s" + std::to_string(Self.id()) +
                                           "/f" + std::to_string(next() % 64));
        Root Handle(H, H.makePortHandle(
                           Id, static_cast<intptr_t>(PortKind::Output)));
        PortG.protect(Handle);
        ++C.PortsOpened;
        for (unsigned K = 0; K != 16; ++K)
          Env.Ports.writeChar(Id, static_cast<char>('a' + K));
        if (next() % 2) {
          Env.Ports.close(Id); // The later ticket sees it closed: fine.
          ++C.ExplicitCloses;
        } else {
          Held.push_back(Handle); // Dropped when the session ends.
        }
      } else if (Roll < 45) { // External memory blocks.
        intptr_t Id = static_cast<intptr_t>(
            Env.ExtMgr.allocate(64 + next() % 512));
        if (Id < 0)
          continue; // Exhausted/shut down; counted by the manager.
        Root Header(H, H.makeRecord(H.intern("external-block"), 2,
                                    Value::fixnum(Id)));
        ExtG.protect(Header);
        ++C.ExtAllocs;
        if (next() % 4 == 0) {
          Env.ExtMgr.free(Id); // Early free; ticket's freeIfLive skips it.
          ++C.ExtExplicitFrees;
        } else if (next() % 2) {
          Held.push_back(Header);
        }
      } else if (Roll < 65) { // Pool bitmaps.
        Root Bitmap(H, Pool.acquire());
        if (Bitmap.get().isFalse()) {
          ++C.PoolExhaustions;
          Pool.refillFreeList();
          continue;
        }
        ++C.PoolAcquires;
        if (next() % 2)
          Pool.release(Bitmap);
        else
          Held.push_back(Bitmap);
      } else if (Roll < 85) { // Guarded hash table churn.
        Root Key(H, Value::fixnum(static_cast<intptr_t>(next() % 2048)));
        Table.access(Key, Value::fixnum(static_cast<intptr_t>(C.Ops)));
        ++C.TableAccesses;
      } else if (Roll < 95) { // Cross-shard message.
        if (Opt.Shards < 2)
          continue;
        size_t To = next() % Opt.Shards;
        if (To == Self.id())
          To = (To + 1) % Opt.Shards;
        Root Msg(H, H.makeRecord(H.intern("session-msg"), 2,
                                 Value::fixnum(static_cast<intptr_t>(
                                     next() % 4096))));
        if (Opt.PayloadBytes) {
          // Bulk payload: a fixnum list sized to --payload-bytes (one
          // pair is two words), so the transfer path sees graphs on
          // either side of the donation threshold.
          const size_t Cells = Opt.PayloadBytes / (2 * sizeof(uintptr_t));
          for (size_t P = 0; P != Cells; ++P)
            Msg = H.cons(Value::fixnum(static_cast<intptr_t>(P)), Msg.get());
        }
        if (Self.sendValue(Self.peer(To), Msg))
          ++C.MessagesSent;
        else
          ++C.SendsRefused; // Inbox full: backpressure, drop and go on.
      } else { // Drop half of what the session holds.
        size_t Keep = Held.size() - (Held.size() - Mark) / 2;
        Held.truncate(Keep);
      }
      if (Op % 32 == 31) {
        drainToExecutor();
        Self.pumpInbox();
      }
      // An "op" is one full loop body including its safepoint work, so
      // the latency distribution shows GC pauses where clients feel
      // them, not just where the collector measures them.
      Env.OpLatency.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - OpStart)
              .count()));
    }
    Held.truncate(Mark); // Session over: everything it held is dropped.
    Extent.reset();      // Close the request scope before the drain.
    drainToExecutor();
    ++C.Sessions;
    if (Opt.ThinkTimeUs)
      std::this_thread::sleep_for(std::chrono::microseconds(Opt.ThinkTimeUs));
  }

  void onShutdown(Shard &) override {
    // Final drain: prove everything still registered dropped, ticket
    // it, and settle the pool's books before the heap goes away.
    Held.clear();
    H.collectFull();
    H.collectFull();
    drainToExecutor();
    Pool.refillFreeList();
    C.TableRemoved = Table.removedTotal();
    C.PoolOutstandingAtExit = Pool.outstanding();
    uint64_t Accounted = Pool.outstanding() + Pool.freeListSize();
    C.PoolUnaccounted =
        Pool.initializations() > Accounted ? Pool.initializations() - Accounted
                                           : 0;
    Pool.shutdown();
    if (H.allocProfiler().enabled()) {
      Env.ProfileCollapsed = H.allocProfiler().collapsedStacks();
      Env.SampledSites = H.allocProfiler().sitesWithSamples();
    }
    Env.Scope = H.scopeTotals();
    Env.Out = C;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt))
    return 2;

  std::vector<std::unique_ptr<ShardEnv>> Envs;
  for (size_t I = 0; I != Opt.Shards; ++I)
    Envs.push_back(std::make_unique<ShardEnv>());
  TransientFailInjector Inject(Opt.FailRatePct);

  ShardRuntime::Config Cfg;
  Cfg.ShardCount = Opt.Shards;
  Cfg.HeapCfg.ArenaBytes = 64u * 1024 * 1024;
  // Sessions allocate tens of KB each; a small gen-0 budget makes the
  // generational machinery (and its pauses) actually exercise under
  // load instead of deferring everything to the shutdown collections.
  Cfg.HeapCfg.Gen0CollectBytes = 64u * 1024;
  // Zero-copy donation: any message graph of at least one segment's worth
  // of payload is donated instead of deep-copied (0 keeps donation off,
  // which is the deep-copy A leg of a --donate A/B pair).
  if (Opt.Donate)
    Cfg.HeapCfg.DonationThresholdBytes = 4096;
  Cfg.MailboxCapacity = 128;
  Cfg.ExecutorCfg.BaseBackoff = std::chrono::microseconds(200);
  if (!Opt.TracePath.empty()) {
    Cfg.HeapCfg.GcTrace = true; // Per-shard event rings.
    Cfg.ExecutorCfg.Tracing = true; // Finalize spans on the fleet clock.
  }
  if (!Opt.ProfilePath.empty())
    Cfg.HeapCfg.ProfileSampleBytes = HeapConfig::DefaultProfileSampleBytes;
  Cfg.HeapCfg.SloMaxPauseNanos = Opt.Slo.PauseMaxNanos;
  ShardRuntime RT(Cfg, [&](Shard &S) {
    return std::make_unique<World>(S, *Envs[S.id()], Opt);
  });

  // One port queue and one external-memory queue per shard: tickets
  // carry plain ids, and the actions touch only the thread-safe
  // external state (never a heap).
  for (size_t I = 0; I != Opt.Shards; ++I) {
    ShardEnv &Env = *Envs[I];
    Env.PortQueue = RT.executor().registerQueue(
        "ports/" + std::to_string(I), [&Env, &Inject](
                                          const FinalizationTicket &T) {
          if (Inject.shouldFail(T))
            return false;
          Env.Ports.close(T.Payload); // Flushes; false if closed already.
          return true;
        });
    Env.ExtQueue = RT.executor().registerQueue(
        "extmem/" + std::to_string(I), [&Env, &Inject](
                                           const FinalizationTicket &T) {
          if (Inject.shouldFail(T))
            return false;
          Env.ExtMgr.freeIfLive(T.Payload);
          return true;
        });
  }

  // Drive the sessions: each is a task on its shard's thread; the
  // shard interleaves them with inbox traffic.
  std::atomic<uint64_t> SessionsDone{0};
  const uint64_t TotalSessions = Opt.Shards * Opt.Sessions;
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I != Opt.Shards; ++I)
    for (size_t N = 0; N != Opt.Sessions; ++N)
      RT.shard(I).post([&SessionsDone](Shard &S) {
        static_cast<World *>(S.local())->runSession();
        ++SessionsDone;
      });
  while (SessionsDone.load() != TotalSessions)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto SessionsEnd = std::chrono::steady_clock::now();
  RT.shutdown();

  double ElapsedSec =
      std::chrono::duration<double>(SessionsEnd - Start).count();
  uint64_t TotalOps = 0;
  for (const auto &Env : Envs)
    TotalOps += Env->Out.Ops;
  double Throughput = ElapsedSec > 0 ? TotalOps / ElapsedSec : 0;

  //===--- The audit ------------------------------------------------------===//

  int Failures = 0;
  auto Audit = [&](bool Ok, const std::string &What) {
    if (!Ok) {
      ++Failures;
      std::fprintf(stderr, "loadgen: ACCOUNTING FAILURE: %s\n", What.c_str());
    }
  };
  for (size_t I = 0; I != Opt.Shards; ++I) {
    ShardEnv &Env = *Envs[I];
    std::string Tag = "shard " + std::to_string(I) + ": ";
    Audit(Env.Ports.totalOpened() == Env.Ports.totalClosed(),
          Tag + "ports opened (" + std::to_string(Env.Ports.totalOpened()) +
              ") != closed (" + std::to_string(Env.Ports.totalClosed()) + ")");
    Audit(Env.Ports.openPortCount() == 0,
          Tag + std::to_string(Env.Ports.openPortCount()) +
              " ports still open");
    Audit(Env.ExtMgr.liveBlocks() == 0,
          Tag + std::to_string(Env.ExtMgr.liveBlocks()) +
              " external blocks leaked");
    Audit(Env.ExtMgr.doubleFrees() == 0,
          Tag + std::to_string(Env.ExtMgr.doubleFrees()) +
              " external double frees");
    Audit(Env.Out.PoolOutstandingAtExit == 0,
          Tag + std::to_string(Env.Out.PoolOutstandingAtExit) +
              " pool bitmaps still outstanding at exit");
    Audit(Env.Out.PoolUnaccounted == 0,
          Tag + std::to_string(Env.Out.PoolUnaccounted) +
              " pool bitmaps unaccounted");
  }
  auto Quarantined = RT.executor().quarantined();
  Audit(Quarantined.empty(), std::to_string(Quarantined.size()) +
                                 " tickets quarantined (finalizers lost)");
  auto ES = RT.executor().stats();
  Audit(ES.Executed + ES.Quarantined ==
            ES.Submitted,
        "executor ledger: executed (" + std::to_string(ES.Executed) +
            ") + quarantined (" + std::to_string(ES.Quarantined) +
            ") != submitted (" + std::to_string(ES.Submitted) + ")");
  if (Opt.FailRatePct > 0)
    Audit(ES.Retried > 0, "fail injection produced no retries");

  //===--- Reporting ------------------------------------------------------===//

  std::vector<ShardGcSample> Samples;
  uint64_t DonatedSegs = 0, ZeroCopyBytes = 0, MessagesAdopted = 0;
  for (const auto &R : RT.reports()) {
    Samples.push_back(R.Gc);
    DonatedSegs += R.TransferDonatedSegments;
    ZeroCopyBytes += R.TransferBytesZeroCopy;
    MessagesAdopted += R.MessagesAdopted;
  }
  FleetGcStats Fleet = RT.fleetGcStats();

  // Merged per-op latency across every shard's sessions.
  LatencyRecorder OpLatency;
  for (const auto &Env : Envs)
    OpLatency.merge(Env->OpLatency);

  // SLO verdict: pause/op clauses against the merged recorders; the
  // MMU clause against the worst shard at the target window (the
  // utilization a client sees is that of the shard it landed on).
  const ShardGcSample *MmuWorst = nullptr;
  double MmuAtTarget = 1.0;
  for (const ShardGcSample &S : Samples) {
    double U = minMutatorUtilization(S.Clips, Opt.Slo.MmuWindowNanos,
                                     S.MutatorNanos);
    if (!MmuWorst || U < MmuAtTarget) {
      MmuWorst = &S;
      MmuAtTarget = U;
    }
  }
  SloVerdict Verdict = evaluateSlo(
      Opt.Slo, Fleet.Pauses, OpLatency,
      MmuWorst ? MmuWorst->Clips : std::vector<PauseClip>{},
      MmuWorst ? MmuWorst->MutatorNanos : 0);

  uint64_t SampledSites = 0;
  for (const auto &Env : Envs)
    SampledSites += Env->SampledSites;

  // Merged request-scope totals across the fleet (all-zero unless
  // --scoped; the JSON keys are emitted either way so A/B runs diff).
  ScopeTotals ScopeAgg;
  for (const auto &Env : Envs)
    ScopeAgg.merge(Env->Scope);

  std::printf("loadgen: %zu shards x %zu sessions x %zu ops  "
              "(seed %llu, think %uus, fail %u%%)\n",
              Opt.Shards, Opt.Sessions, Opt.Ops,
              static_cast<unsigned long long>(Opt.Seed), Opt.ThinkTimeUs,
              Opt.FailRatePct);
  for (size_t I = 0; I != Opt.Shards; ++I) {
    const WorldCounters &W = Envs[I]->Out;
    const Shard::Report &R = RT.reports()[I];
    std::printf("  shard %zu: %llu ops (%.0f ops/s), %llu ports, %llu "
                "extmem, %llu pool, %llu table, %llu sent, %llu recvd\n",
                I, static_cast<unsigned long long>(W.Ops),
                ElapsedSec > 0 ? W.Ops / ElapsedSec : 0,
                static_cast<unsigned long long>(W.PortsOpened),
                static_cast<unsigned long long>(W.ExtAllocs),
                static_cast<unsigned long long>(W.PoolAcquires),
                static_cast<unsigned long long>(W.TableAccesses),
                static_cast<unsigned long long>(W.MessagesSent),
                static_cast<unsigned long long>(R.MessagesReceived));
  }
  std::printf("%s", formatFleetSummary(Samples, Fleet).c_str());
  std::printf("loadgen: op latency p50 %llu p99 %llu p999 %llu max %llu ns "
              "over %llu ops\n",
              static_cast<unsigned long long>(OpLatency.p50()),
              static_cast<unsigned long long>(OpLatency.p99()),
              static_cast<unsigned long long>(OpLatency.p999()),
              static_cast<unsigned long long>(OpLatency.maxNanos()),
              static_cast<unsigned long long>(OpLatency.count()));
  std::printf("loadgen: %llu total ops in %.3fs = %.0f ops/s aggregate; "
              "executor ran %llu tickets (%llu retried, wait p99 %llu ns, "
              "run p99 %llu ns, peak depth %llu)\n",
              static_cast<unsigned long long>(TotalOps), ElapsedSec,
              Throughput, static_cast<unsigned long long>(ES.Executed),
              static_cast<unsigned long long>(ES.Retried),
              static_cast<unsigned long long>(ES.WaitNanos.p99()),
              static_cast<unsigned long long>(ES.RunNanos.p99()),
              static_cast<unsigned long long>(ES.MaxPending));
  if (Opt.Scoped)
    std::printf("loadgen: scopes: %llu closed (max depth %llu), %.1f MB "
                "allocated in scopes, %.1f MB reclaimed untraced at close "
                "(%.1f%%), %llu objects graduated\n",
                static_cast<unsigned long long>(ScopeAgg.ScopesClosed),
                static_cast<unsigned long long>(ScopeAgg.MaxDepth),
                static_cast<double>(ScopeAgg.BytesInScopes) / (1024.0 * 1024.0),
                static_cast<double>(ScopeAgg.BytesReclaimed) /
                    (1024.0 * 1024.0),
                ScopeAgg.BytesInScopes
                    ? 100.0 * static_cast<double>(ScopeAgg.BytesReclaimed) /
                          static_cast<double>(ScopeAgg.BytesInScopes)
                    : 0.0,
                static_cast<unsigned long long>(ScopeAgg.ObjectsEvacuated));
  if (Opt.Donate || DonatedSegs)
    std::printf("loadgen: transfer: %llu segments donated (%.1f MB "
                "zero-copy), %llu messages adopted\n",
                static_cast<unsigned long long>(DonatedSegs),
                static_cast<double>(ZeroCopyBytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(MessagesAdopted));
  std::printf("loadgen: %s\n",
              formatSloVerdict(Opt.Slo, Verdict).c_str());
  std::printf("loadgen: accounting %s\n", Failures ? "FAILED" : "clean");
  // An armed SLO that fails is a red exit, not just a log line.
  if (!Verdict.Pass)
    ++Failures;

  if (!Opt.TracePath.empty()) {
    if (RT.exportFleetTrace(Opt.TracePath))
      std::printf("loadgen: fleet trace -> %s\n", Opt.TracePath.c_str());
    else
      ++Failures;
  }
  if (!Opt.ProfilePath.empty()) {
    std::FILE *F = std::fopen(Opt.ProfilePath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "loadgen: cannot write %s\n",
                   Opt.ProfilePath.c_str());
      ++Failures;
    } else {
      // Concatenated per-shard collapsed stacks; flamegraph tooling
      // sums repeated frames, so no pre-merge is needed.
      for (const auto &Env : Envs)
        std::fputs(Env->ProfileCollapsed.c_str(), F);
      std::fclose(F);
      std::printf("loadgen: heap profile (%llu sampled sites) -> %s\n",
                  static_cast<unsigned long long>(SampledSites),
                  Opt.ProfilePath.c_str());
    }
  }

  if (!Opt.JsonPath.empty()) {
    // Google Benchmark JSON shape, so scripts/bench.sh --summarize
    // ingests loadgen runs alongside the microbenchmarks.
    std::FILE *F = std::fopen(Opt.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", Opt.JsonPath.c_str());
      return 2;
    }
    double RealNs = ElapsedSec * 1e9;
    std::fprintf(
        F,
        "{\n"
        "  \"context\": {\"executable\": \"loadgen\", \"shards\": %zu,\n"
        "              \"sessions_per_shard\": %zu, \"ops_per_session\": %zu,\n"
        "              \"seed\": %llu, \"think_time_us\": %u,\n"
        "              \"fail_rate_pct\": %u, \"scoped\": %d,\n"
        "              \"payload_bytes\": %zu, \"donate\": %d},\n"
        "  \"benchmarks\": [\n"
        "    {\"name\": \"loadgen/shards:%zu\", \"run_type\": \"iteration\",\n"
        "     \"iterations\": 1, \"real_time\": %.0f, \"cpu_time\": %.0f,\n"
        "     \"time_unit\": \"ns\",\n"
        "     \"ops\": %llu, \"throughput_ops_per_sec\": %.1f,\n",
        Opt.Shards, Opt.Sessions, Opt.Ops,
        static_cast<unsigned long long>(Opt.Seed), Opt.ThinkTimeUs,
        Opt.FailRatePct, Opt.Scoped ? 1 : 0, Opt.PayloadBytes,
        Opt.Donate ? 1 : 0, Opt.Shards, RealNs, RealNs,
        static_cast<unsigned long long>(TotalOps), Throughput);
    auto Counter = [&](const std::string &Key, uint64_t N) {
      std::fprintf(F, "     \"%s\": %llu,\n", Key.c_str(),
                   static_cast<unsigned long long>(N));
    };
    forEachGcTotalsExport(Fleet.Combined, Counter);
    forEachScopeTotalsExport(ScopeAgg, Counter);
    std::fprintf(
        F,
        "     \"gc_pause_p50_ns\": %llu, \"gc_pause_p99_ns\": %llu,\n"
        "     \"gc_pause_p999_ns\": %llu, \"gc_pause_max_ns\": %llu,\n"
        "     \"latency_op_p50_ns\": %llu, \"latency_op_p99_ns\": %llu,\n"
        "     \"latency_op_p999_ns\": %llu, \"latency_op_max_ns\": %llu,\n"
        "     \"latency_op_count\": %llu,\n"
        "     \"mmu_1ms\": %.4f, \"mmu_10ms\": %.4f, \"mmu_100ms\": %.4f,\n"
        "     \"slo_pass\": %d, \"slo_pause_violations\": %llu,\n"
        "     \"slo_op_violations\": %llu, \"slo_mmu_violations\": %llu,\n"
        "     \"alloc_sampled_sites\": %llu,\n"
        "     \"executor_tickets\": %llu, \"executor_retries\": %llu,\n"
        "     \"executor_wait_p99_ns\": %llu, \"executor_run_p99_ns\": %llu,\n"
        "     \"executor_max_pending\": %llu,\n"
        "     \"messages_sent\": %llu, \"messages_adopted\": %llu,\n"
        "     \"transfer_donated_segments\": %llu,\n"
        "     \"transfer_bytes_zero_copy\": %llu,\n"
        "     \"accounting_failures\": %d}\n"
        "  ]\n"
        "}\n",
        static_cast<unsigned long long>(Fleet.PauseP50Nanos),
        static_cast<unsigned long long>(Fleet.PauseP99Nanos),
        static_cast<unsigned long long>(Fleet.PauseP999Nanos),
        static_cast<unsigned long long>(Fleet.PauseMaxNanos),
        static_cast<unsigned long long>(OpLatency.p50()),
        static_cast<unsigned long long>(OpLatency.p99()),
        static_cast<unsigned long long>(OpLatency.p999()),
        static_cast<unsigned long long>(OpLatency.maxNanos()),
        static_cast<unsigned long long>(OpLatency.count()),
        [&] {
          double M[3] = {1.0, 1.0, 1.0};
          for (size_t K = 0; K != Fleet.Mmu.size() && K != 3; ++K)
            M[K] = Fleet.Mmu[K].Utilization;
          return M[0];
        }(),
        Fleet.Mmu.size() > 1 ? Fleet.Mmu[1].Utilization : 1.0,
        Fleet.Mmu.size() > 2 ? Fleet.Mmu[2].Utilization : 1.0,
        Verdict.Pass ? 1 : 0,
        static_cast<unsigned long long>(Verdict.PauseViolations),
        static_cast<unsigned long long>(Verdict.OpViolations),
        static_cast<unsigned long long>(Verdict.MmuViolations),
        static_cast<unsigned long long>(SampledSites),
        static_cast<unsigned long long>(ES.Executed),
        static_cast<unsigned long long>(ES.Retried),
        static_cast<unsigned long long>(ES.WaitNanos.p99()),
        static_cast<unsigned long long>(ES.RunNanos.p99()),
        static_cast<unsigned long long>(ES.MaxPending),
        [&] {
          uint64_t Sent = 0;
          for (const auto &Env : Envs)
            Sent += Env->Out.MessagesSent;
          return static_cast<unsigned long long>(Sent);
        }(),
        static_cast<unsigned long long>(MessagesAdopted),
        static_cast<unsigned long long>(DonatedSegs),
        static_cast<unsigned long long>(ZeroCopyBytes),
        Failures);
    std::fclose(F);
  }
  return Failures ? 1 : 0;
}

//===- tests/gc/fuzz_regression_test.cpp - Fuzz harness self-tests --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// Self-tests for the model-differential harness (src/testing/): a clean
// corpus must pass, the trace format must round-trip, and — the test
// that the oracle has teeth — each injected collector fault must be
// caught and shrink to a handful of ops. Shrunk traces that once
// exposed real divergences get committed here as replay regressions.
//
//===----------------------------------------------------------------------===//

#include "testing/TraceRunner.h"

#include <gtest/gtest.h>

#include <csignal>

using namespace gengc;
using namespace gengc::gcfuzz;

namespace {

// A few fixed seeds per standard config must run divergence-free. The
// real coverage lives in the gcfuzz.seed_corpus CTest tier and the CLI;
// this is a cheap canary that the harness itself still works when run
// under the plain unit-test binary.
TEST(FuzzHarness, CleanCorpusSelfTest) {
  for (const FuzzConfig &Cfg : standardConfigs()) {
    for (uint64_t Seed = 1; Seed != 6; ++Seed) {
      Trace T = generateTrace(Seed, 120);
      RunResult R = runTrace(T, Cfg.Config);
      EXPECT_FALSE(R.Diverged)
          << "config " << Cfg.Name << " seed " << Seed << ": "
          << R.Message;
      EXPECT_GT(R.Collections, 0u)
          << "config " << Cfg.Name << " seed " << Seed
          << ": trace triggered no collections — nothing was checked";
    }
  }
}

TEST(FuzzHarness, TraceGenerationIsDeterministic) {
  Trace A = generateTrace(42, 200);
  Trace B = generateTrace(42, 200);
  ASSERT_EQ(A.Ops.size(), B.Ops.size());
  for (size_t I = 0; I != A.Ops.size(); ++I) {
    EXPECT_EQ(A.Ops[I].Code, B.Ops[I].Code);
    EXPECT_EQ(A.Ops[I].A, B.Ops[I].A);
    EXPECT_EQ(A.Ops[I].B, B.Ops[I].B);
    EXPECT_EQ(A.Ops[I].C, B.Ops[I].C);
  }
}

TEST(FuzzHarness, SerializationRoundTrip) {
  Trace T = generateTrace(7, 64);
  const std::string Text = serializeTrace(T);
  Trace Back;
  std::string Error;
  ASSERT_TRUE(deserializeTrace(Text, Back, Error)) << Error;
  EXPECT_EQ(Back.Seed, T.Seed);
  ASSERT_EQ(Back.Ops.size(), T.Ops.size());
  for (size_t I = 0; I != T.Ops.size(); ++I) {
    EXPECT_EQ(Back.Ops[I].Code, T.Ops[I].Code);
    EXPECT_EQ(Back.Ops[I].A, T.Ops[I].A);
    EXPECT_EQ(Back.Ops[I].B, T.Ops[I].B);
    EXPECT_EQ(Back.Ops[I].C, T.Ops[I].C);
  }
}

TEST(FuzzHarness, SerializationRejectsGarbage) {
  Trace T;
  std::string Error;
  EXPECT_FALSE(deserializeTrace("not a trace\n", T, Error));
  EXPECT_FALSE(
      deserializeTrace("gcfuzz-trace v1\nbogus-op 1 2 3\n", T, Error));
  EXPECT_FALSE(
      deserializeTrace("gcfuzz-trace v1\ncons 1 2\n", T, Error));
}

// Searches a seed range for a trace that diverges under Cfg, then
// shrinks it and checks the minimized trace still reproduces. Returns
// the shrunk size, or 0 if no seed diverged.
size_t catchAndShrink(const HeapConfig &Cfg, uint64_t &FoundSeed,
                      bool Scoped = false, bool Donation = false) {
  for (uint64_t Seed = 1; Seed != 60; ++Seed) {
    Trace T = generateTrace(Seed, 140, Scoped, Donation);
    RunResult R = runTrace(T, Cfg);
    if (!R.Diverged)
      continue;
    FoundSeed = Seed;
    Trace Minimal = shrinkTrace(T, Cfg);
    EXPECT_LE(Minimal.Ops.size(), T.Ops.size());
    RunResult MR = runTrace(Minimal, Cfg);
    EXPECT_TRUE(MR.Diverged)
        << "shrunk trace no longer reproduces the divergence";
    // Round-trip the shrunk trace through the file format and replay.
    Trace Replayed;
    std::string Error;
    EXPECT_TRUE(
        deserializeTrace(serializeTrace(Minimal), Replayed, Error))
        << Error;
    EXPECT_TRUE(runTrace(Replayed, Cfg).Diverged);
    return Minimal.Ops.size();
  }
  return 0;
}

// ISSUE acceptance: a deliberately injected liveness bug — the salvage
// loop silently dropping the first resurrection per collection — must
// be caught by the oracle and shrink to fewer than 25 trace ops.
TEST(FuzzHarness, InjectedResurrectionBugIsCaughtAndShrinks) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("paper", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::DropFirstResurrection;
  uint64_t Seed = 0;
  const size_t ShrunkSize = catchAndShrink(Cfg.Config, Seed);
  ASSERT_GT(ShrunkSize, 0u)
      << "no seed in range exposed the injected resurrection bug";
  EXPECT_LT(ShrunkSize, 25u) << "seed " << Seed << " shrunk poorly";
  // Scope closes run the same guardian fixpoint.
  const size_t ScopedSize =
      catchAndShrink(Cfg.Config, Seed, /*Scoped=*/true);
  ASSERT_GT(ScopedSize, 0u)
      << "no scoped seed in range exposed the injected resurrection bug";
  EXPECT_LT(ScopedSize, 25u) << "scoped seed " << Seed << " shrunk poorly";
}

// Same, for the weak-pointer fault: fixWeakCar breaking cars of objects
// that actually survived the collection or scope close.
TEST(FuzzHarness, InjectedWeakBreakBugIsCaughtAndShrinks) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("paper", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::BreakLiveWeakCar;
  uint64_t Seed = 0;
  const size_t ShrunkSize = catchAndShrink(Cfg.Config, Seed);
  ASSERT_GT(ShrunkSize, 0u)
      << "no seed in range exposed the injected weak-break bug";
  EXPECT_LT(ShrunkSize, 25u) << "seed " << Seed << " shrunk poorly";
  // Scope closes run the same weak pass.
  const size_t ScopedSize =
      catchAndShrink(Cfg.Config, Seed, /*Scoped=*/true);
  ASSERT_GT(ScopedSize, 0u)
      << "no scoped seed in range exposed the injected weak-break bug";
  EXPECT_LT(ScopedSize, 25u) << "scoped seed " << Seed << " shrunk poorly";
}

// The remembered-set canary: the first minor collection that scans a
// remembered set loses one entry, exactly as if the write barrier had
// missed an old-to-young store. The reachability oracle must catch the
// young object that dies while the model keeps it.
TEST(FuzzHarness, DroppedRememberedEntryCaughtByOracleAndShrinks) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("paper", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::DropRememberedEntry;
  // The fault is a missing remembered-set entry, which only minor
  // collections can miss — full collections trace from roots and never
  // consult the remembered sets. Pin the generational schedule so the
  // GENGC_STRESS build (full collection at every safepoint) does not
  // mask the bug this test requires the oracle to catch.
  Cfg.Config.StressGC = false;
  uint64_t Seed = 0;
  const size_t ShrunkSize = catchAndShrink(Cfg.Config, Seed);
  ASSERT_GT(ShrunkSize, 0u)
      << "no seed in range exposed the dropped remembered entry";
  EXPECT_LT(ShrunkSize, 25u) << "seed " << Seed << " shrunk poorly";
}

// Scoped alphabet canary: traces with scope-open / scope-close /
// alloc-in-scope in the mix must run divergence-free under every
// standard config, and every scoped trace must actually exercise the
// scope machinery (the weighted alphabet makes opens near-certain at
// 120 ops, so a zero count means the generator regressed).
TEST(FuzzHarness, ScopedCleanCorpusSelfTest) {
  for (const FuzzConfig &Cfg : standardConfigs()) {
    for (uint64_t Seed = 1; Seed != 6; ++Seed) {
      Trace T = generateTrace(Seed, 120, /*Scoped=*/true);
      size_t ScopeOps = 0;
      for (const TraceOp &O : T.Ops)
        if (O.Code == static_cast<uint8_t>(Op::ScopeOpen) ||
            O.Code == static_cast<uint8_t>(Op::ScopeClose) ||
            O.Code == static_cast<uint8_t>(Op::AllocInScope))
          ++ScopeOps;
      EXPECT_GT(ScopeOps, 0u)
          << "seed " << Seed << ": scoped trace drew no scope ops";
      RunResult R = runTrace(T, Cfg.Config);
      EXPECT_FALSE(R.Diverged)
          << "config " << Cfg.Name << " seed " << Seed << ": "
          << R.Message;
    }
  }
}

// The scoped ops are appended after the historical alphabet, and the
// unscoped weighted draw only ranges over the original entries — so
// pre-existing trace generation must stay byte-identical with the
// scoped alphabet compiled in.
TEST(FuzzHarness, UnscopedTracesUnchangedByScopedAlphabet) {
  Trace T = generateTrace(42, 300, /*Scoped=*/false);
  for (const TraceOp &O : T.Ops) {
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::ScopeOpen));
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::ScopeClose));
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::AllocInScope));
  }
}

// ISSUE acceptance: the scope-close fault — the first escaped
// container's into-scope fields cleared to #f instead of scanned,
// exactly as if the write barrier had lost the escape record, so an
// outside-reachable scope resident dies in the evacuation — must be
// caught by the scope-aware oracle and shrink to fewer than 25 ops.
TEST(FuzzHarness, InjectedScopeLeakIsCaughtAndShrinks) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("paper", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::LeakScopeEscape;
  uint64_t Seed = 0;
  const size_t ShrunkSize =
      catchAndShrink(Cfg.Config, Seed, /*Scoped=*/true);
  ASSERT_GT(ShrunkSize, 0u)
      << "no seed in range exposed the injected scope leak";
  EXPECT_LT(ShrunkSize, 25u) << "seed " << Seed << " shrunk poorly";
}

// Donation alphabet canary: traces with donate-send / donate-receive /
// donate-drop in the mix must run divergence-free under every standard
// config — every send's copied byte count matches the model snapshot,
// every receive's adopted graph is isomorphic to the snapshot, and the
// per-op ownership audit balances throughout.
TEST(FuzzHarness, DonationCleanCorpusSelfTest) {
  for (const FuzzConfig &Cfg : standardConfigs()) {
    for (uint64_t Seed = 1; Seed != 6; ++Seed) {
      Trace T = generateTrace(Seed, 120, /*Scoped=*/true,
                              /*Donation=*/true);
      size_t DonationOps = 0;
      for (const TraceOp &O : T.Ops)
        if (O.Code == static_cast<uint8_t>(Op::DonateSend) ||
            O.Code == static_cast<uint8_t>(Op::DonateReceive) ||
            O.Code == static_cast<uint8_t>(Op::DonateDrop))
          ++DonationOps;
      EXPECT_GT(DonationOps, 0u)
          << "seed " << Seed << ": donation trace drew no donation ops";
      RunResult R = runTrace(T, Cfg.Config);
      EXPECT_FALSE(R.Diverged)
          << "config " << Cfg.Name << " seed " << Seed << ": "
          << R.Message;
    }
  }
}

// The donation ops are appended after the scoped alphabet, and the
// scoped weighted draw only ranges over the first NumScopedOps entries
// — so scoped trace generation must stay byte-identical with the
// donation alphabet compiled in.
TEST(FuzzHarness, ScopedTracesUnchangedByDonationAlphabet) {
  Trace T = generateTrace(42, 300, /*Scoped=*/true, /*Donation=*/false);
  for (const TraceOp &O : T.Ops) {
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::DonateSend));
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::DonateReceive));
    EXPECT_NE(O.Code, static_cast<uint8_t>(Op::DonateDrop));
  }
}

// ISSUE acceptance: the donation fault — dropped DonatedGraph handles
// leak their sealed exchange segments instead of freeing them, the
// classic unowned-segment bug a refcount slip would produce — must be
// caught by the runner's ownership audit and shrink to fewer than 25
// ops (minimal reproducer: allocate something, donate it, drop it).
TEST(FuzzHarness, InjectedDonationLeakIsCaughtAndShrinks) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("paper", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::LeakDonatedSegment;
  uint64_t Seed = 0;
  const size_t ShrunkSize =
      catchAndShrink(Cfg.Config, Seed, /*Scoped=*/true,
                     /*Donation=*/true);
  ASSERT_GT(ShrunkSize, 0u)
      << "no seed in range exposed the injected donation leak";
  EXPECT_LT(ShrunkSize, 25u) << "seed " << Seed << " shrunk poorly";
}

// Replay regression (found by the 10k donation sweep): adopting a
// donated graph may collect during its phase 1 — intern polls the
// safepoint even for a pure lookup, which under the stress schedule
// is a full collection — and the runner once erased the handle from
// its in-flight list *before* calling adopt, so the mid-adopt audit
// found two donated segments with no owner. The runner now adopts in
// place and erases after; this trace must run clean forever.
TEST(FuzzHarness, MidAdoptCollectionKeepsOwnershipBalanced) {
  static const char *TraceText =
      "gcfuzz-trace v1\n"
      "seed 90\n"
      "cons 1693126310 4024491454 3138962844\n"
      "make-box 880249633 606395030 1961479503\n"
      "intern 851716064 1065237759 1237165315\n"
      "make-bytevector 3534216352 2282806624 4054070944\n"
      "intern 479057211 1094803872 1688097551\n"
      "cons 760483365 1453424819 1716691735\n"
      "cons 169701063 1716006590 3098070310\n"
      "weak-cons 2618943670 871067175 1750498487\n"
      "make-box 811890697 341873343 4158535329\n"
      "make-large-vector 3575715465 2950104973 1991432119\n"
      "weak-cons 2227892612 4079506814 1678901953\n"
      "make-bytevector 1249138444 3645258301 3081149597\n"
      "cons 1188382671 1860642074 3317419292\n"
      "make-string 1099396196 3293821449 2924900141\n"
      "make-box 2895259101 920583536 1509713762\n"
      "alloc-in-scope 1945304184 3860802784 2946405608\n"
      "weak-cons 2025364134 732672130 248624925\n"
      "weak-cons 3209713766 1894446416 1773508486\n"
      "weak-cons 1813818749 3039237836 8676852\n"
      "make-box 557359222 192756534 890183249\n"
      "guardian-new 2434104066 3071435060 2222260771\n"
      "intern 1706966195 4283833025 2601466587\n"
      "alloc-in-scope 2925750337 3197041765 587889355\n"
      "alloc-in-scope 3028580698 1750636744 164427342\n"
      "make-flonum 1022408372 1942954146 1139954775\n"
      "cons 533828259 358862954 300655800\n"
      "cons 4226262014 2592655800 1411505040\n"
      "make-box 3961672623 3483402067 4007766309\n"
      "cons 1575117715 740351281 1134798294\n"
      "collect 1877519128 666406559 1782472472\n"
      "weak-cons 1415417341 1628187464 1881470921\n"
      "intern 1585000505 4041030401 2231476932\n"
      "set-cdr! 607850234 4140735732 557366107\n"
      "alloc-in-scope 118056655 2989260464 929806033\n"
      "make-string 2944825344 3683959133 1171168671\n"
      "cons 2911511132 1909716029 1520165474\n"
      "donate-send 3892974374 411824329 620941074\n"
      "donate-receive 2620488751 961321907 603993131\n";
  Trace T;
  std::string Error;
  ASSERT_TRUE(deserializeTrace(TraceText, T, Error)) << Error;
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("stress", Cfg));
  RunResult R = runTrace(T, Cfg.Config);
  EXPECT_FALSE(R.Diverged) << R.Message;
  EXPECT_GT(R.Collections, 0u);
}

// The faults must also be caught under the stress schedule (collections
// at every safepoint exercise very different GC timing).
TEST(FuzzHarness, InjectedFaultCaughtUnderStressSchedule) {
  FuzzConfig Cfg;
  ASSERT_TRUE(findConfig("stress", Cfg));
  Cfg.Config.InjectedFault = GcFaultInjection::DropFirstResurrection;
  uint64_t Seed = 0;
  EXPECT_GT(catchAndShrink(Cfg.Config, Seed), 0u)
      << "no seed in range exposed the fault under stress";
}

} // namespace

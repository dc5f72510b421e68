//===- testing/Trace.h - Random mutator traces ----------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace is a flat list of (opcode, A, B, C) tuples — a tiny random
/// mutator program. Operand words are raw 32-bit values; the interpreter
/// (testing/TraceRunner.cpp) resolves them against whatever state exists
/// when the op runs (slot scans, modular clamps), so *every* operand
/// value is valid in *every* context. That property is what makes greedy
/// op deletion a sound shrinking strategy: removing ops never produces
/// an invalid trace, only a different one.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_TESTING_TRACE_H
#define GENGC_TESTING_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace gengc {
namespace gcfuzz {

/// Trace opcodes. Collectively they exercise every mutator-facing
/// surface the paper's semantics cover: allocation in all four spaces
/// (including multi-segment large objects), barriered mutation, weak
/// pairs, symbol interning, guardian create/guard/retrieve/drain with
/// and without Section 5 agents, root liveness changes, and explicit
/// collections of every generation.
enum class Op : uint8_t {
  Cons = 0,
  WeakCons,
  MakeVector,
  MakeLargeVector, ///< Hundreds of slots: multi-segment runs.
  MakeString,
  MakeBytevector,
  MakeFlonum,
  MakeBox,
  MakeRecord,
  Intern,
  SetCar,
  SetCdr,
  VectorSet,
  BoxSet,
  RecordSet,
  RootPush,
  RootPop,
  DropSlot, ///< Unguard-by-drop: make an object unreachable.
  DupSlot,
  GuardianNew,
  Guard,
  GuardWithAgent,
  Retrieve,
  Drain,
  Collect,
  // Scoped ops (DESIGN.md §12). Appended after the unscoped alphabet so
  // unscoped generation, which draws over the first NumUnscopedOps
  // entries only, reproduces historical traces byte-for-byte.
  ScopeOpen,    ///< openScope(), bounded nesting.
  ScopeClose,   ///< closeScope(): evacuate escapes, cross-check.
  AllocInScope, ///< A garbage-heavy pair chain in the current extent.
  // Donation ops (DESIGN.md §13). Appended after the scoped alphabet so
  // scoped generation, which draws over the first NumScopedOps entries
  // only, reproduces historical traces byte-for-byte.
  DonateSend,    ///< donateGraph(slot): snapshot + park in flight.
  DonateReceive, ///< adoptDonatedGraph of an in-flight graph.
  DonateDrop,    ///< Drop an in-flight graph (frees its segments).
};
constexpr unsigned NumUnscopedOps = 25;
constexpr unsigned NumScopedOps = 28;
constexpr unsigned NumOps = 31;

/// Stable text name of an opcode (trace file format).
const char *opName(Op O);
/// Inverse of opName; returns false for unknown names.
bool opFromName(const std::string &Name, Op &O);

struct TraceOp {
  uint8_t Code = 0;
  uint32_t A = 0, B = 0, C = 0;
};

struct Trace {
  uint64_t Seed = 0;
  std::vector<TraceOp> Ops;
};

/// Generates a weighted random trace from the deterministic PRNG
/// (support/XorShift.h). Identical (Seed, OpCount, Scoped, Donation)
/// always yields an identical trace, on every platform. Scoped traces
/// draw from the alphabet including scope-open/scope-close/
/// alloc-in-scope; donation traces add donate-send/donate-receive/
/// donate-drop on top of the scoped alphabet. Unscoped traces are
/// byte-identical to those this function generated before scopes or
/// donation existed.
Trace generateTrace(uint64_t Seed, size_t OpCount, bool Scoped = false,
                    bool Donation = false);

/// Text round-trip, for committing shrunk failures and --trace-replay.
std::string serializeTrace(const Trace &T);
bool deserializeTrace(const std::string &Text, Trace &T,
                      std::string &Error);

} // namespace gcfuzz
} // namespace gengc

#endif // GENGC_TESTING_TRACE_H

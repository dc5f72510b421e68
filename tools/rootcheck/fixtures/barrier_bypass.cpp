//===- fixtures/barrier_bypass.cpp - barrier-bypass rule catalogue -------===//
//
// Self-test fixture: raw slot writes outside the GC/heap/object
// internals must be flagged; barriered stores and reasoned
// suppressions must not. (The fixture lives outside
// src/gc/, so the directory exemption does not apply here.)
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"

using namespace gengc;

void rawSetterCalls(Heap &H, Value P, Value Vec, Value V) {
  pairSetCarRaw(P, V);           // expect: barrier-bypass
  pairSetCdrRaw(P, V);           // expect: barrier-bypass
  objectFieldSetRaw(Vec, 0, V);  // expect: barrier-bypass
  gengc::pairSetCarRaw(P, V);    // expect: barrier-bypass
}

void directBitStores(PairCell *Cell, Value V) {
  Cell->Car = V.bits(); // expect: barrier-bypass
  Cell->Cdr = V.bits(); // expect: barrier-bypass
}

void barrieredStoresAreFine(Heap &H, Value P, Value Vec, Value V) {
  H.setCar(P, V);
  H.setCdr(P, V);
  H.vectorSet(Vec, 0, V);
}

void notActuallyAStore(PairCell *Cell, Value V) {
  // Comparison, not assignment: must not match `->Car =[^=]`.
  bool Same = Cell->Car == V.bits();
  (void)Same;
  // Mentions inside strings and comments are stripped before matching:
  // pairSetCarRaw(P, V) in a comment is fine.
  const char *Doc = "call pairSetCarRaw(P, V) to skip the barrier";
  (void)Doc;
}

void suppressedWithReason(PairCell *Cell, Value V) {
  // rootcheck:allow(barrier-bypass) — freshly allocated this cell
  // above with no intervening safepoint; initializing store.
  Cell->Car = V.bits();
  Cell->Cdr = V.bits(); // rootcheck:allow(barrier-bypass) — same cell.
}

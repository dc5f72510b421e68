//===- gc/Tconc.h - The tconc queue protocol (Figures 2-4) ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tconc queue used to represent a guardian's inaccessible group.
/// "A tconc consists of a list and a header; the header is an ordinary
/// pair whose car field points to the first cell in the list and whose
/// cdr field points to the last cell in the list" (Figure 2).
///
/// The protocols are designed so that no critical sections are needed:
/// the mutator owns the header's car, the collector owns the header's
/// cdr and the pair it points to, and the collector publishes a new
/// element only with its final update of the header's cdr (Figure 3).
/// The mutator retrieves from the front by swinging the header's car
/// (Figure 4), clearing the vacated cell to avoid unnecessary storage
/// retention.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TCONC_H
#define GENGC_GC_TCONC_H

#include "gc/Heap.h"

namespace gengc {

/// Creates an empty tconc: (let ([z (cons #f '())]) (cons z z)).
inline Value tconcMake(Heap &H) { return H.makeGuardianTconc(); }

/// True if the tconc holds no elements: the header's car and cdr point
/// to the same pair.
inline bool tconcEmpty(Value Tconc) {
  return pairCar(Tconc) == pairCdr(Tconc);
}

/// The Figure 3 insertion sequence, given a freshly allocated pair
/// \p NewLast whose fields are don't-cares. The mutator-side append
/// uses it, and tests drive the protocol one published state at a time
/// with it. The collector does not: Collector::deliverToTconcs appends a
/// whole round's agents to a tconc as one batch, linking the fresh cells
/// with plain stores and publishing the header's cdr once at the end.
/// Under stop-the-world that is the same rule — nothing is visible to
/// the mutator before the final header update.
inline void tconcAppendWithCell(Heap &H, Value Tconc, Value Obj,
                                Value NewLast) {
  GENGC_ASSERT(Tconc.isPair() && NewLast.isPair(), "malformed tconc append");
  Value OldLast = pairCdr(Tconc);
  // Fill the old last pair: its car becomes the new element, its cdr the
  // new last pair. Until the header's cdr is updated, the mutator still
  // sees car(header) == cdr(header) for an empty queue and cannot
  // observe the partially installed element.
  H.setCar(OldLast, Obj);
  H.setCdr(OldLast, NewLast);
  // The final update publishes the element.
  H.setCdr(Tconc, NewLast);
}

/// Mutator-side append (allocates the fresh last pair normally). The
/// collector-side equivalent allocates directly into the target
/// generation; see Collector::deliverToTconcs.
void tconcAppend(Heap &H, Value Tconc, Value Obj);

/// The Figure 4 retrieval sequence; returns #f if the tconc is empty.
inline Value tconcRetrieve(Heap &H, Value Tconc) {
  return H.guardianRetrieve(Tconc);
}

/// Number of elements currently in the queue (walks header car to
/// header cdr; test/bench helper, not part of the protocol).
inline size_t tconcLength(Value Tconc) {
  size_t N = 0;
  Value Cell = pairCar(Tconc);
  Value Last = pairCdr(Tconc);
  while (Cell != Last) {
    ++N;
    Cell = pairCdr(Cell);
  }
  return N;
}

} // namespace gengc

#endif // GENGC_GC_TCONC_H

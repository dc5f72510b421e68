//===- gc/ScopedGeneration.h - Request-scoped ephemeral generations -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ScopedGeneration is a dynamically created ephemeral generation
/// opened per dynamic extent (DESIGN.md §12): Heap::openScope() pushes
/// one, all mutator allocation then bump-allocates into the scope's own
/// segments (tagged Generation 0 / ScopeDepth d in the segment table),
/// and Heap::closeScope() runs a scope-local evacuation — objects
/// reachable from outside the scope graduate into the enclosing scope
/// (or the ordinary generation 0), everything else dies without ever
/// being traced. Scopes nest LIFO; ScopedExtent is the RAII handle.
///
/// The reachability frontier at close time is:
///   - the real roots (root slots/vectors, external scanners) and the
///     strong symbol table,
///   - the scope's escape set: containers outside the scope into which
///     the write barrier observed a store of a scope pointer (old→scope
///     and outer-scope→inner-scope edges — the scope analogue of a
///     remembered set; WeakEscapes holds weak-pair cars separately so
///     they update-or-break instead of retaining),
///   - the scope's own guardian protected list, over which the paper's
///     Section 4 pend-hold/pend-final fixpoint runs so resurrection
///     order, tconc delivery, and re-guarding at scope exit behave
///     identically to a full collection.
///
/// The struct is collector-internal state published to the Heap,
/// Collector, verifier, and census; it has no mutator-facing API of its
/// own.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_SCOPEDGENERATION_H
#define GENGC_GC_SCOPEDGENERATION_H

#include <vector>

#include "gc/Heap.h"
#include "heap/SpaceContext.h"
#include "support/PtrHashSet.h"

namespace gengc {

struct ScopedGeneration {
  explicit ScopedGeneration(unsigned Depth) : Depth(Depth) {}

  /// 1-based nesting depth; equals the ScopeDepth tag of every segment
  /// this scope allocates.
  unsigned Depth;

  /// Bump-allocation contexts, one per space — the scope's private
  /// nursery, in the heap's private arena. Segments are tagged (Space,
  /// Generation 0, Depth).
  SpaceContext Contexts[NumSpaces];

  /// Containers outside this scope (depth < Depth, any generation) that
  /// may hold a strong pointer into it. Maintained by the write barrier;
  /// scanned as evacuation roots at close. Conservative the same way a
  /// remembered set is: entries whose field was later overwritten are
  /// scanned harmlessly, and entries whose container dies in an
  /// intervening collection are dropped by the collector's escape-set
  /// fixup.
  PtrHashSet Escapes;
  /// Weak pairs outside this scope whose (weak) car may point into it.
  /// At close these cars are updated to the graduated copy or broken to
  /// #f — never treated as roots.
  PtrHashSet WeakEscapes;

  /// Guardian registrations whose deepest participant lives in this
  /// scope. Processed by every ordinary collection (participants in
  /// collected generations may die) and by the Section 4 fixpoint at
  /// this scope's close.
  std::vector<Heap::ProtectedEntry> Protected;

  /// Intern-table entries of the symbols that live in this scope (those
  /// interned while it was innermost, plus graduates of inner scopes).
  /// Visited at this scope's close, never by an ordinary collection,
  /// which does not collect scopes.
  std::vector<Heap::SymbolEntry *> Symbols;
};

/// RAII dynamic-extent handle: opens a scope on construction, closes it
/// on destruction, asserting the LIFO discipline.
class ScopedExtent {
public:
  explicit ScopedExtent(Heap &H) : H(H) {
    H.openScope();
    Depth = H.scopeDepth();
  }
  ~ScopedExtent() {
    GENGC_ASSERT(H.scopeDepth() == Depth,
                 "ScopedExtent destroyed out of LIFO order");
    H.closeScope();
  }

  ScopedExtent(const ScopedExtent &) = delete;
  ScopedExtent &operator=(const ScopedExtent &) = delete;

private:
  Heap &H;
  unsigned Depth;
};

} // namespace gengc

#endif // GENGC_GC_SCOPEDGENERATION_H

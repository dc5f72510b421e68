//===- support/PtrHashSet.h - Open-addressing word set --------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small open-addressing hash set of pointer-sized words. The collector
/// uses one per generation as its remembered set (old objects that may
/// hold pointers into younger generations), so insertion on the mutator's
/// write-barrier path must be fast and allocation-free in the common case.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SUPPORT_PTRHASHSET_H
#define GENGC_SUPPORT_PTRHASHSET_H

#include <cstdint>
#include <utility>
#include <vector>

#include "support/Assert.h"
#include "support/MathExtras.h"

namespace gengc {

/// Open-addressing (linear probing) set of nonzero uintptr_t keys.
/// Zero is reserved as the empty-slot marker; the collector only stores
/// tagged heap pointers, which are never zero.
class PtrHashSet {
public:
  PtrHashSet() = default;

  /// Inserts \p Key. Returns true if the key was newly added.
  bool insert(uintptr_t Key) {
    GENGC_ASSERT(Key != 0, "PtrHashSet cannot store zero");
    if (Slots.empty() || Count * 4 >= Slots.size() * 3)
      grow();
    size_t I = probeStart(Key);
    while (Slots[I] != 0) {
      if (Slots[I] == Key)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Key;
    ++Count;
    return true;
  }

  /// Returns true if \p Key is present.
  bool contains(uintptr_t Key) const {
    if (Slots.empty())
      return false;
    size_t I = probeStart(Key);
    while (Slots[I] != 0) {
      if (Slots[I] == Key)
        return true;
      I = (I + 1) & (Slots.size() - 1);
    }
    return false;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Removes all keys but keeps the backing storage.
  void clear() {
    if (Count == 0)
      return;
    std::fill(Slots.begin(), Slots.end(), 0);
    Count = 0;
  }

  /// Replaces the contents of \p Keys with this set's keys. The
  /// collector snapshots remembered sets before processing them because
  /// processing may insert new keys; it passes one reused buffer.
  void snapshotInto(std::vector<uintptr_t> &Keys) const {
    Keys.clear();
    for (uintptr_t S : Slots)
      if (S != 0)
        Keys.push_back(S);
  }

  /// Replaces the contents with \p Keys (deduplicating).
  void assign(const std::vector<uintptr_t> &Keys) {
    clear();
    for (uintptr_t K : Keys)
      insert(K);
  }

private:
  size_t probeStart(uintptr_t Key) const {
    return static_cast<size_t>(hashPointerBits(Key)) & (Slots.size() - 1);
  }

  void grow() {
    size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
    std::vector<uintptr_t> Old = std::move(Slots);
    Slots.assign(NewSize, 0);
    Count = 0;
    for (uintptr_t K : Old)
      if (K != 0)
        insert(K);
  }

  std::vector<uintptr_t> Slots;
  size_t Count = 0;
};

} // namespace gengc

#endif // GENGC_SUPPORT_PTRHASHSET_H

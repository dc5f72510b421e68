//===- runtime/SegmentTransfer.cpp - Zero-copy transfer protocol ---------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "runtime/SegmentTransfer.h"

#include <memory>
#include <vector>

#include "gc/Heap.h"
#include "object/Layout.h"
#include "support/PtrHashSet.h"

namespace gengc {
namespace runtime {

TransferPlan estimateTransfer(Value V) {
  TransferPlan Plan;
  if (!V.isHeapPointer())
    return Plan;

  // Non-allocating sizing walk mirroring Heap::donateGraph's traversal:
  // one visit per distinct object, weak cars followed strongly, symbols
  // terminal.
  PtrHashSet Seen;
  std::vector<Value> Pending;
  auto Visit = [&](Value X) {
    if (!X.isHeapPointer())
      return;
    if (X.isObject() && objectKind(X) == ObjectKind::Symbol)
      return; // Transfers by name; nothing donated.
    if (Seen.contains(X.bits()))
      return;
    Seen.insert(X.bits());
    Pending.push_back(X);
  };

  Visit(V);
  while (!Pending.empty() && Plan.Transferable) {
    Value X = Pending.back();
    Pending.pop_back();
    if (X.isPair()) {
      Plan.EstimatedBytes += 2 * sizeof(uintptr_t);
      Visit(pairCar(X));
      Visit(pairCdr(X));
      continue;
    }
    const uintptr_t Header = *X.objectHeader();
    switch (headerKind(Header)) {
    case ObjectKind::Closure:
    case ObjectKind::Primitive:
    case ObjectKind::PortHandle:
    case ObjectKind::Guardian:
      // Meaningless outside their shard: the deep-copy path decides
      // whether to reject or sever, so donation stands down entirely.
      Plan.Transferable = false;
      break;
    default:
      Plan.EstimatedBytes += objectAllocWords(Header) * sizeof(uintptr_t);
      if (kindHasPointers(headerKind(Header))) {
        const size_t Fields = objectPointerFieldCount(Header);
        for (size_t I = 0; I != Fields; ++I)
          Visit(objectField(X, I));
      }
      break;
    }
  }
  return Plan;
}

TransferPlan planTransfer(Heap &H, Value V) {
  const size_t Threshold = H.config().DonationThresholdBytes;
  if (Threshold == 0)
    return TransferPlan{}; // Donation disabled: size nothing.
  TransferPlan Plan = estimateTransfer(V);
  Plan.Donate = Plan.Transferable && Plan.EstimatedBytes >= Threshold;
  return Plan;
}

void buildDonationMessage(Heap &H, Value V, PinnedMessage &Msg) {
  Msg.Nodes.clear();
  Msg.SeveredEdges = 0;
  Msg.Donated = std::make_unique<DonatedGraph>(H.donateGraph(V));
}

Value receiveTransfer(Heap &H, PinnedMessage &Msg) {
  if (Msg.Donated) {
    Value Root = H.adoptDonatedGraph(*Msg.Donated);
    Msg.Donated.reset();
    return Root;
  }
  return decodeMessage(H, Msg);
}

} // namespace runtime
} // namespace gengc

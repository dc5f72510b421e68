//===- runtime/SegmentTransfer.h - Zero-copy transfer protocol -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-shard transfer protocol (DESIGN.md §13): which of the two
/// transfer mechanisms a payload takes, and the send/receive halves of
/// the donation path.
///
/// Small payloads take the classic pinned-message deep copy
/// (runtime/PinnedMessage.h): encode on the sender, decode on the
/// receiver, two full copies of the graph. Payloads of at least
/// HeapConfig::DonationThresholdBytes take segment donation instead:
/// the sender evacuates the graph once into fresh sealed segments of the
/// process-wide exchange arena, the segments travel inside the
/// PinnedMessage as a DonatedGraph handle, and the receiver adopts them
/// by retagging — no per-object work on the receiving side at all.
///
/// Both mechanisms produce byte-identical receiver semantics: sharing
/// and cycles preserved, weak pairs stay weak, symbols re-interned by
/// name on the receiving heap. Kinds that cannot cross shards
/// (closures, primitives, port handles, guardians) disqualify a graph
/// from donation; such sends fall back to the deep copy, whose
/// TransferPolicy decides whether to reject or sever.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_SEGMENTTRANSFER_H
#define GENGC_RUNTIME_SEGMENTTRANSFER_H

#include <cstddef>

#include "object/Value.h"
#include "runtime/PinnedMessage.h"

namespace gengc {

class Heap;

namespace runtime {

/// The transfer decision for one payload.
struct TransferPlan {
  /// Every object in the graph is a transferable kind (pair, weak pair,
  /// vector, record, box, string, bytevector, flonum, symbol). A graph
  /// containing anything else must take the deep-copy path, whose
  /// TransferPolicy governs rejection vs severing.
  bool Transferable = true;
  /// The payload meets the donation threshold AND is transferable:
  /// send by segment donation.
  bool Donate = false;
  /// Bytes the graph would occupy in donation segments (the bytes the
  /// receiver does not copy). Symbols contribute nothing — they
  /// transfer by name.
  size_t EstimatedBytes = 0;
};

/// Sizes the graph rooted at \p V and checks its transferability in one
/// non-allocating walk. Weak cars are traversed like strong edges
/// (message parity with the deep-copy encoder).
TransferPlan estimateTransfer(Value V);

/// estimateTransfer resolved against the heap's donation policy
/// (HeapConfig::DonationThresholdBytes; 0 disables donation).
TransferPlan planTransfer(Heap &H, Value V);

/// Sender half of the donation path: evacuates the graph rooted at
/// \p V into fresh exchange-arena segments (Heap::donateGraph) and
/// packs the handle into \p Msg. Not a safepoint. The caller must have
/// established Transferable via planTransfer first.
void buildDonationMessage(Heap &H, Value V, PinnedMessage &Msg);

/// Receiver entry point for BOTH mechanisms: adopts the donated
/// segments if \p Msg carries a DonatedGraph (emptying the handle),
/// otherwise decodes the pinned node table. Returns the root value in
/// \p H.
Value receiveTransfer(Heap &H, PinnedMessage &Msg);

} // namespace runtime
} // namespace gengc

#endif // GENGC_RUNTIME_SEGMENTTRANSFER_H

//===- runtime/PinnedMessage.h - Heap-independent value snapshots -*- C++ -*-//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-shard value transfer. Each shard owns a private Heap, so a
/// Value can never be handed directly to another shard: the pointer is
/// meaningless there and the sending collector may move or reclaim the
/// object at any time. Instead a value crossing shards is *pinned*:
/// deep-copied into a PinnedMessage, a flat node table owned by plain
/// C++ memory that no collector ever moves. The receiving shard decodes
/// the message into fresh objects in its own heap.
///
/// Encoding preserves sharing and cycles (a node per distinct heap
/// object, by address), weakness (weak pairs decode as weak pairs), and
/// symbol identity by re-interning names on the receiving heap. Kinds
/// that are meaningless outside their shard — closures, primitives,
/// port handles, guardians — are either rejected (the default: encode
/// fails and nothing is sent) or severed to #f under
/// TransferPolicy::Sever.
///
/// Encoding allocates nothing on the GC heap, so object addresses are
/// stable for the duration of the walk; decoding allocates only into a
/// RootVector, so it is safe under stress collection.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_PINNEDMESSAGE_H
#define GENGC_RUNTIME_PINNEDMESSAGE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "heap/DonatedGraph.h"
#include "object/Value.h"

namespace gengc {

class Heap;

namespace runtime {

/// What to do when the value graph reaches an object that cannot cross
/// shards (closure, primitive, port handle, guardian).
enum class TransferPolicy : uint8_t {
  Reject, ///< encode() fails; the message must not be sent.
  Sever,  ///< The offending edge decodes as #f; counted in the message.
};

/// Transferable object kinds. Everything else is non-transferable.
enum class PinnedKind : uint8_t {
  Pair,
  WeakPair,
  Vector,
  Record,
  Box,
  String,
  Bytevector,
  Flonum,
  Symbol,
  Severed, ///< Placeholder for a non-transferable object under Sever.
};

/// One field of a pinned node: either an immediate value (fixnum, #t,
/// #f, nil, char, ...; the tagged bits are heap-independent) or a
/// reference to another node in the same message.
struct PinnedField {
  bool IsRef = false;
  uintptr_t Bits = 0; ///< Immediate Value bits, or a node index.

  static PinnedField immediate(Value V) { return {false, V.bits()}; }
  static PinnedField ref(uint32_t Node) { return {true, Node}; }
};

/// One pinned heap object.
struct PinnedNode {
  PinnedKind Kind = PinnedKind::Severed;
  std::vector<PinnedField> Fields; ///< Pair/WeakPair: car, cdr. Box: value.
                                   ///< Vector: elements. Record: tag then
                                   ///< payload fields.
  std::vector<uint8_t> Bytes;      ///< String/Symbol name, bytevector data.
  double Flonum = 0.0;
};

/// A deep-copied value snapshot with no pointers into any heap — or,
/// for large payloads, a zero-copy segment donation riding the same
/// mailbox rails.
struct PinnedMessage {
  std::vector<PinnedNode> Nodes;
  PinnedField RootField;
  uint64_t SeveredEdges = 0; ///< Non-transferables replaced under Sever.

  /// Donation transport (runtime/SegmentTransfer.h): when set, Nodes is
  /// empty and the payload is the sealed exchange-arena segments this
  /// handle owns; the receiver adopts them instead of decoding. Safe to
  /// carry across threads: the handle holds no pointer into either
  /// shard's private heap, and dropping the message frees the segments
  /// back to the exchange arena.
  std::unique_ptr<DonatedGraph> Donated;

  /// Causal-tracing identifiers, stamped by Shard::sendValue and
  /// carried verbatim to the receiver. TraceId names the whole causal
  /// chain (the first hop's span id); SpanId names this hop and is
  /// globally unique: (sender shard + 1) << 32 | per-shard sequence,
  /// so the source shard is recoverable from the id alone. Zero means
  /// untraced.
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;

  size_t nodeCount() const { return Nodes.size(); }
};

/// Deep-copies \p V out of \p H into \p Out. Returns false (leaving
/// \p Out unspecified) iff the graph contains a non-transferable object
/// and \p Policy is Reject.
bool encodeMessage(Heap &H, Value V, PinnedMessage &Out,
                   TransferPolicy Policy = TransferPolicy::Reject);

/// Materializes \p Msg in \p H and returns the root value. Symbols are
/// re-interned by name; sharing, cycles, and weak pairs are preserved.
Value decodeMessage(Heap &H, const PinnedMessage &Msg);

} // namespace runtime
} // namespace gengc

#endif // GENGC_RUNTIME_PINNEDMESSAGE_H

//===- io/PortTable.h - Buffered ports over the memory FS ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Ports encapsulate a file identifier, used to perform operating
/// system requests, a buffer containing unread or unwritten data, and
/// various other items of information." The port state lives outside the
/// collected heap; the heap holds small PortHandle objects that carry a
/// port id. Guardians preserve the handle, and clean-up code uses the id
/// to flush and close the underlying port -- the structure the paper's
/// Section 3 example assumes.
///
/// Deliberately, ports are NOT closed by a C++ destructor: the whole
/// point of the reproduction is that the garbage collector (via
/// guardians) is what rescues dropped ports.
///
/// The table is thread-safe, and calls on different ports share no
/// lock: in the shard runtime, a shard's mutator opens and writes ports
/// on the shard thread while the FinalizationExecutor flushes and closes
/// dropped ones from its own thread, and neither should wait for the
/// other. Ports live in chunks whose sizes double (1,024 ports, then
/// 2,048, ...), reached through a fixed array of chunk pointers, so ids
/// stay stable, an open never moves another thread's port, and one bit
/// scan finds a port. An open appends under a growth lock and publishes
/// the new port count with a release store; every other call checks its
/// id against that count and takes only its port's stripe lock, one of
/// 64 chosen by id. A port's own calls are serialised by that lock, so
/// flushes reach the file in order and close is idempotent. A port's
/// kind and path never change after open and are read with no lock.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_IO_PORTTABLE_H
#define GENGC_IO_PORTTABLE_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "io/FileSystem.h"
#include "support/AdaptiveMutex.h"
#include "support/Assert.h"

namespace gengc {

enum class PortKind : intptr_t { Input = 0, Output = 1 };

class PortTable {
public:
  explicit PortTable(MemoryFileSystem &FS, size_t BufferSize = 256)
      : FS(FS), BufferSize(BufferSize) {}
  PortTable(const PortTable &) = delete;
  PortTable &operator=(const PortTable &) = delete;

  ~PortTable() {
    const size_t N = Count.load(std::memory_order_relaxed);
    for (size_t Id = 0; Id != N; ++Id)
      slot(Id).~PortState();
    for (std::atomic<PortState *> &Chunk : Chunks)
      ::operator delete(Chunk.load(std::memory_order_relaxed));
  }

  /// Opens a file for reading; the file must exist. Returns the port id.
  intptr_t openInput(const std::string &Path) {
    std::string Contents;
    bool Ok = FS.read(Path, Contents);
    GENGC_ASSERT(Ok, "open-input-file: file does not exist");
    return append(Path, {Contents.begin(), Contents.end()}, PortKind::Input);
  }

  /// Opens (creates/truncates) a file for writing. Returns the port id.
  intptr_t openOutput(const std::string &Path) {
    FS.create(Path);
    return append(Path, {}, PortKind::Output);
  }

  /// Reads one character, or -1 at end of file.
  int readChar(intptr_t Id) {
    PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    GENGC_ASSERT(P.Kind == PortKind::Input, "readChar on output port");
    GENGC_ASSERT(P.Open, "readChar on closed port");
    if (P.Position >= P.Buffer.size())
      return -1;
    return static_cast<unsigned char>(P.Buffer[P.Position++]);
  }

  /// Buffered character write; spills to the file system when the
  /// buffer fills.
  void writeChar(intptr_t Id, char C) {
    PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    GENGC_ASSERT(P.Kind == PortKind::Output, "writeChar on input port");
    GENGC_ASSERT(P.Open, "writeChar on closed port");
    P.Buffer.push_back(C);
    if (P.Buffer.size() >= BufferSize)
      flushLocked(P);
  }

  void writeString(intptr_t Id, const std::string &S) {
    PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    GENGC_ASSERT(P.Kind == PortKind::Output, "writeString on input port");
    GENGC_ASSERT(P.Open, "writeString on closed port");
    for (char C : S) {
      P.Buffer.push_back(C);
      if (P.Buffer.size() >= BufferSize)
        flushLocked(P);
    }
  }

  /// flush-output-port: pushes buffered bytes to the file system.
  void flush(intptr_t Id) {
    PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    GENGC_ASSERT(P.Open, "flush on closed port");
    flushLocked(P);
  }

  /// close-input-port / close-output-port. Closing an output port
  /// flushes first. Idempotent, mirroring Scheme's tolerant close:
  /// returns true only for the call that closed the port.
  bool close(intptr_t Id) {
    PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    if (!P.Open)
      return false;
    flushLocked(P);
    P.Open = false;
    P.Buffer.clear();
    P.Buffer.shrink_to_fit();
    ClosedCount.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool isOpen(intptr_t Id) const {
    const PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    return P.Open;
  }
  PortKind kindOf(intptr_t Id) const { return state(Id).Kind; }
  std::string pathOf(intptr_t Id) const { return state(Id).Path; }
  size_t bufferedBytes(intptr_t Id) const {
    const PortState &P = state(Id);
    std::lock_guard<AdaptiveMutex> Lock(stripeOf(Id));
    return P.Buffer.size();
  }

  /// Number of ports currently open: the "tied up system resources" the
  /// paper worries about. Each port is read under its own stripe lock,
  /// so with calls in flight the count is not one instant's.
  size_t openPortCount() const {
    const size_t End = Count.load(std::memory_order_acquire);
    size_t N = 0;
    for (size_t Id = 0; Id != End; ++Id) {
      std::lock_guard<AdaptiveMutex> Lock(stripeOf(static_cast<intptr_t>(Id)));
      if (slot(Id).Open)
        ++N;
    }
    return N;
  }
  uint64_t totalOpened() const {
    return Count.load(std::memory_order_relaxed);
  }
  uint64_t totalClosed() const {
    return ClosedCount.load(std::memory_order_relaxed);
  }
  uint64_t totalFlushes() const {
    return FlushCount.load(std::memory_order_relaxed);
  }

private:
  struct PortState {
    const std::string Path;
    std::vector<char> Buffer;
    size_t Position; ///< Read position (input ports).
    const PortKind Kind;
    bool Open;
  };

  /// Chunk C holds ports [1024 (2^C - 1), 1024 (2^(C+1) - 1)). 48 chunks
  /// reach past 2^57 ports, so the table has no cap in practice.
  static constexpr unsigned FirstChunkLog2 = 10;
  static constexpr unsigned MaxChunks = 48;
  static constexpr unsigned NumStripes = 64;

  static constexpr size_t chunkPorts(unsigned C) {
    return size_t{1} << (FirstChunkLog2 + C);
  }

  /// With the id biased by the first chunk's size, its top bit names the
  /// chunk and the bits below it are the offset.
  PortState &slot(size_t Id) const {
    const size_t Biased = Id + chunkPorts(0);
    const unsigned Top = std::bit_width(Biased) - 1;
    const unsigned C = Top - FirstChunkLog2;
    const size_t Off = Biased - (size_t{1} << Top);
    GENGC_ASSERT(C < MaxChunks && Off < chunkPorts(C),
                 "port id maps outside its chunk");
    return Chunks[C].load(std::memory_order_relaxed)[Off];
  }

  /// Ids below the published count name fully built ports; the acquire
  /// pairs with append's release, so the chunk pointer is seen too.
  PortState &state(intptr_t Id) const {
    GENGC_ASSERT(Id >= 0 && static_cast<size_t>(Id) <
                                Count.load(std::memory_order_acquire),
                 "bad port id");
    return slot(static_cast<size_t>(Id));
  }

  AdaptiveMutex &stripeOf(intptr_t Id) const {
    return Stripes[static_cast<size_t>(Id) % NumStripes].M;
  }

  intptr_t append(const std::string &Path, std::vector<char> Buffer,
                  PortKind Kind) {
    std::lock_guard<AdaptiveMutex> Lock(Grow);
    const size_t Id = Count.load(std::memory_order_relaxed);
    const size_t Biased = Id + chunkPorts(0);
    if (std::has_single_bit(Biased)) { // The first port of a new chunk.
      const unsigned C = std::bit_width(Biased) - 1 - FirstChunkLog2;
      GENGC_ASSERT(C < MaxChunks, "port table full");
      Chunks[C].store(static_cast<PortState *>(
                          ::operator new(chunkPorts(C) * sizeof(PortState))),
                      std::memory_order_relaxed);
    }
    ::new (&slot(Id)) PortState{Path, std::move(Buffer), 0, Kind, true};
    Count.store(Id + 1, std::memory_order_release);
    return static_cast<intptr_t>(Id);
  }

  void flushLocked(PortState &P) {
    if (P.Kind != PortKind::Output || P.Buffer.empty())
      return;
    FS.append(P.Path, P.Buffer.data(), P.Buffer.size());
    P.Buffer.clear();
    FlushCount.fetch_add(1, std::memory_order_relaxed);
  }

  /// Cache-line aligned, so two threads on ports of different stripes
  /// do not share the line their locks live on.
  struct alignas(64) Stripe {
    AdaptiveMutex M;
  };

  MemoryFileSystem &FS;
  size_t BufferSize;
  /// Held by opens only, while they build a port and publish Count.
  AdaptiveMutex Grow;
  std::atomic<size_t> Count{0};
  /// Chunk C is allocated by the open of its first port, raw: a port is
  /// built in place when it opens, so the untouched tail of the newest
  /// chunk costs address space only.
  mutable std::array<std::atomic<PortState *>, MaxChunks> Chunks{};
  mutable std::array<Stripe, NumStripes> Stripes;
  std::atomic<uint64_t> ClosedCount{0};
  std::atomic<uint64_t> FlushCount{0};
};

} // namespace gengc

#endif // GENGC_IO_PORTTABLE_H

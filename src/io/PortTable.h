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
/// The table is thread-safe: in the shard runtime, a shard's mutator
/// opens and writes ports on the shard thread while the
/// FinalizationExecutor flushes and closes dropped ones from its own
/// thread. Port state lives in a deque so ids stay stable and open
/// never invalidates another thread's port. The lock spins before it
/// sleeps: the executor closes a guardian's burst of dropped ports back
/// to back while the mutator writes, and a waiter that slept would lose
/// more to its wake-up than it waited for the lock.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_IO_PORTTABLE_H
#define GENGC_IO_PORTTABLE_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
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

  /// Opens a file for reading; the file must exist. Returns the port id.
  intptr_t openInput(const std::string &Path) {
    std::string Contents;
    bool Ok = FS.read(Path, Contents);
    GENGC_ASSERT(Ok, "open-input-file: file does not exist");
    std::lock_guard<AdaptiveMutex> Lock(M);
    Ports.push_back(PortState{Path, {Contents.begin(), Contents.end()},
                              0, PortKind::Input, true});
    ++OpenedCount;
    return static_cast<intptr_t>(Ports.size() - 1);
  }

  /// Opens (creates/truncates) a file for writing. Returns the port id.
  intptr_t openOutput(const std::string &Path) {
    FS.create(Path);
    std::lock_guard<AdaptiveMutex> Lock(M);
    Ports.push_back(PortState{Path, {}, 0, PortKind::Output, true});
    ++OpenedCount;
    return static_cast<intptr_t>(Ports.size() - 1);
  }

  /// Reads one character, or -1 at end of file.
  int readChar(intptr_t Id) {
    std::lock_guard<AdaptiveMutex> Lock(M);
    PortState &P = state(Id);
    GENGC_ASSERT(P.Kind == PortKind::Input, "readChar on output port");
    GENGC_ASSERT(P.Open, "readChar on closed port");
    if (P.Position >= P.Buffer.size())
      return -1;
    return static_cast<unsigned char>(P.Buffer[P.Position++]);
  }

  /// Buffered character write; spills to the file system when the
  /// buffer fills.
  void writeChar(intptr_t Id, char C) {
    std::lock_guard<AdaptiveMutex> Lock(M);
    PortState &P = state(Id);
    GENGC_ASSERT(P.Kind == PortKind::Output, "writeChar on input port");
    GENGC_ASSERT(P.Open, "writeChar on closed port");
    P.Buffer.push_back(C);
    if (P.Buffer.size() >= BufferSize)
      flushLocked(P);
  }

  void writeString(intptr_t Id, const std::string &S) {
    std::lock_guard<AdaptiveMutex> Lock(M);
    PortState &P = state(Id);
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
    std::lock_guard<AdaptiveMutex> Lock(M);
    PortState &P = state(Id);
    GENGC_ASSERT(P.Open, "flush on closed port");
    flushLocked(P);
  }

  /// close-input-port / close-output-port. Closing an output port
  /// flushes first. Idempotent, mirroring Scheme's tolerant close.
  void close(intptr_t Id) {
    std::lock_guard<AdaptiveMutex> Lock(M);
    PortState &P = state(Id);
    if (!P.Open)
      return;
    if (P.Kind == PortKind::Output)
      flushLocked(P);
    P.Open = false;
    P.Buffer.clear();
    P.Buffer.shrink_to_fit();
    ++ClosedCount;
  }

  bool isOpen(intptr_t Id) const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return state(Id).Open;
  }
  PortKind kindOf(intptr_t Id) const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return state(Id).Kind;
  }
  std::string pathOf(intptr_t Id) const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return state(Id).Path;
  }
  size_t bufferedBytes(intptr_t Id) const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return state(Id).Buffer.size();
  }

  /// Number of ports currently open: the "tied up system resources" the
  /// paper worries about.
  size_t openPortCount() const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    size_t N = 0;
    for (const PortState &P : Ports)
      if (P.Open)
        ++N;
    return N;
  }
  uint64_t totalOpened() const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return OpenedCount;
  }
  uint64_t totalClosed() const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return ClosedCount;
  }
  uint64_t totalFlushes() const {
    std::lock_guard<AdaptiveMutex> Lock(M);
    return FlushCount;
  }

private:
  struct PortState {
    std::string Path;
    std::vector<char> Buffer;
    size_t Position; ///< Read position (input ports).
    PortKind Kind;
    bool Open;
  };

  PortState &state(intptr_t Id) {
    GENGC_ASSERT(Id >= 0 && static_cast<size_t>(Id) < Ports.size(),
                 "bad port id");
    return Ports[static_cast<size_t>(Id)];
  }
  const PortState &state(intptr_t Id) const {
    GENGC_ASSERT(Id >= 0 && static_cast<size_t>(Id) < Ports.size(),
                 "bad port id");
    return Ports[static_cast<size_t>(Id)];
  }

  void flushLocked(PortState &P) {
    if (P.Kind != PortKind::Output || P.Buffer.empty())
      return;
    FS.append(P.Path, P.Buffer.data(), P.Buffer.size());
    P.Buffer.clear();
    ++FlushCount;
  }

  MemoryFileSystem &FS;
  size_t BufferSize;
  /// Held briefly, by the mutator and the finalization executor in
  /// turn: a waiter spins before it sleeps.
  mutable AdaptiveMutex M;
  /// Deque, not vector: a concurrent open must not move the PortState
  /// another thread holds a reference to inside a member function.
  std::deque<PortState> Ports;
  uint64_t OpenedCount = 0;
  uint64_t ClosedCount = 0;
  uint64_t FlushCount = 0;
};

} // namespace gengc

#endif // GENGC_IO_PORTTABLE_H

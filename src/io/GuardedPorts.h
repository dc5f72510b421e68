//===- io/GuardedPorts.h - Section 3's dropped-port clean-up --*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 3 example, transliterated:
///
///   (define port-guardian (make-guardian))
///   (define close-dropped-ports
///     (lambda () (let ([p (port-guardian)]) (if p (begin ...close...
///       (close-dropped-ports))))))
///   (define guarded-open-input-file (lambda (pathname)
///     (close-dropped-ports)
///     (let ([p (open-input-file pathname)]) (port-guardian p) p)))
///   ... guarded-open-output-file, guarded-exit ...
///
/// "Dropped ports are closed whenever an open operation is performed or
/// upon exit from the system"; alternatively install
/// closeDroppedPorts() as the heap's collect-request handler, as the
/// Chez Scheme snippet at the end of Section 3 does.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_IO_GUARDEDPORTS_H
#define GENGC_IO_GUARDEDPORTS_H

#include "core/Guardian.h"
#include "io/PortTable.h"

namespace gengc {

class GuardedPortSystem {
public:
  GuardedPortSystem(Heap &H, PortTable &Ports)
      : H(H), Ports(Ports), PortGuardian(H) {}

  /// (guarded-open-input-file pathname)
  Value openInput(const std::string &Path) {
    closeDroppedPorts();
    intptr_t Id = Ports.openInput(Path);
    Root Handle(H, H.makePortHandle(
                       Id, static_cast<intptr_t>(PortKind::Input)));
    PortGuardian.protect(Handle);
    return Handle;
  }

  /// (guarded-open-output-file pathname)
  Value openOutput(const std::string &Path) {
    closeDroppedPorts();
    intptr_t Id = Ports.openOutput(Path);
    Root Handle(H, H.makePortHandle(
                       Id, static_cast<intptr_t>(PortKind::Output)));
    PortGuardian.protect(Handle);
    return Handle;
  }

  /// (close-dropped-ports): flushes and closes every port whose handle
  /// was proven inaccessible. Returns the number closed.
  size_t closeDroppedPorts() {
    return PortGuardian.drain([this](Value Handle) {
      // (if (output-port? p)
      //     (begin (flush-output-port p) (close-output-port p))
      //     (close-input-port p))
      // in one call: close flushes an output port first, and a port
      // closed explicitly before it was dropped stays closed.
      if (Ports.close(portIdOf(Handle)))
        ++DroppedClosed;
    });
  }

  /// (guarded-exit): clean up dropped ports before leaving the system.
  void exitCleanup() { closeDroppedPorts(); }

  /// Installs close-dropped-ports as the collect-request handler, the
  /// alternative wiring shown at the end of Section 3.
  void installCollectRequestHandler() {
    H.setCollectRequestHandler(
        [this](Heap &) { closeDroppedPorts(); });
  }

  //===--- Port operations through handles -------------------------------===//

  static intptr_t portIdOf(Value Handle) {
    GENGC_ASSERT(isPortHandle(Handle), "not a port handle");
    return objectField(Handle, PortId).asFixnum();
  }

  int readChar(Value Handle) { return Ports.readChar(portIdOf(Handle)); }
  void writeChar(Value Handle, char C) {
    Ports.writeChar(portIdOf(Handle), C);
  }
  void writeString(Value Handle, const std::string &S) {
    Ports.writeString(portIdOf(Handle), S);
  }
  void flush(Value Handle) { Ports.flush(portIdOf(Handle)); }
  void close(Value Handle) { Ports.close(portIdOf(Handle)); }
  bool isOpen(Value Handle) { return Ports.isOpen(portIdOf(Handle)); }
  bool isOutputPort(Value Handle) {
    return Ports.kindOf(portIdOf(Handle)) == PortKind::Output;
  }

  uint64_t droppedPortsClosed() const { return DroppedClosed; }

private:
  Heap &H;
  PortTable &Ports;
  Guardian PortGuardian;
  uint64_t DroppedClosed = 0;
};

} // namespace gengc

#endif // GENGC_IO_GUARDEDPORTS_H

//===- heap/SharedImmutableSpace.cpp - Process-wide exchange space --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// The heap-layer half of the exchange domain: arena ownership, shared
// publishing primitives, and DonatedGraph lifetime. freeze() — which
// must classify values against a source Heap — lives in gc/Donation.cpp
// with the rest of the donation machinery.
//
//===----------------------------------------------------------------------===//

#include "heap/SharedImmutableSpace.h"

#include <cstring>

#include "object/Layout.h"

using namespace gengc;

void DonatedGraph::release() {
  if (Domain && !LeakOnDrop)
    for (unsigned S = 0; S != NumSpaces; ++S)
      Domain->Exchange.freeRuns(Runs[S]);
  for (unsigned S = 0; S != NumSpaces; ++S)
    Runs[S].clear();
  Fixups.clear();
  Domain = nullptr;
  Bytes = 0;
}

SharedImmutableSpace::SharedImmutableSpace(size_t TotalBytes)
    : Exchange(TotalBytes) {}

SharedImmutableSpace &SharedImmutableSpace::process() {
  static SharedImmutableSpace Instance;
  return Instance;
}

uintptr_t *SharedImmutableSpace::allocateShared(SpaceKind Space,
                                                size_t Words) {
  return SharedContexts[static_cast<unsigned>(Space)].allocate(
      Exchange, Space, SharedGeneration, Words, /*ScopeDepth=*/0,
      SegmentInfo::FlagShared);
}

Value SharedImmutableSpace::sharedStringLocked(std::string_view Contents) {
  auto It = SharedStrings.find(std::string(Contents));
  if (It != SharedStrings.end())
    return Value::fromBits(It->second);
  const uintptr_t Header = makeHeader(ObjectKind::String, Contents.size());
  uintptr_t *W = allocateShared(SpaceKind::Data, objectAllocWords(Header));
  W[0] = Header;
  std::memset(W + 1, 0, (objectAllocWords(Header) - 1) * sizeof(uintptr_t));
  std::memcpy(W + 1, Contents.data(), Contents.size());
  Value Str = Value::object(W);
  SharedStrings.emplace(std::string(Contents), Str.bits());
  return Str;
}

Value SharedImmutableSpace::internSharedLocked(std::string_view Name) {
  auto It = SharedSymbols.find(std::string(Name));
  if (It != SharedSymbols.end())
    return Value::fromBits(It->second);
  Value Str = sharedStringLocked(Name);
  uintptr_t *W = allocateShared(SpaceKind::Typed, 1 + SymbolFieldCount);
  W[0] = makeHeader(ObjectKind::Symbol, SymbolFieldCount);
  W[1 + SymName] = Str.bits();
  W[1 + SymHash] = Value::fixnum(0).bits();
  W[1 + SymPlist] = Value::nil().bits();
  Value Sym = Value::object(W);
  SharedSymbols.emplace(std::string(Name), Sym.bits());
  return Sym;
}

Value SharedImmutableSpace::internShared(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return internSharedLocked(Name);
}

size_t SharedImmutableSpace::sharedBytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t Words = 0;
  for (unsigned S = 0; S != NumSpaces; ++S)
    Words += SharedContexts[S].usedWords(Exchange);
  return Words * sizeof(uintptr_t);
}

//===- heap/DonatedGraph.cpp - Donated message graphs ---------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// The heap-layer half of donation: the process exchange arena,
// DonatedGraph lifetime and the ownership count. Copy-out and adoption
// need the Heap and live in gc/Donation.cpp.
//
//===----------------------------------------------------------------------===//

#include "heap/DonatedGraph.h"

using namespace gengc;

void DonatedGraph::release() {
  if (Domain && !LeakOnDrop)
    for (unsigned S = 0; S != NumSpaces; ++S)
      Domain->freeRuns(Runs[S]);
  for (unsigned S = 0; S != NumSpaces; ++S)
    Runs[S].clear();
  Fixups.clear();
  Domain = nullptr;
  Bytes = 0;
}

Arena &gengc::processExchange() {
  static Arena Instance(256u * 1024 * 1024);
  return Instance;
}

size_t gengc::donatedSegmentsInUse(const Arena &Exchange) {
  size_t N = 0;
  for (size_t I = 0, E = Exchange.totalSegments(); I != E; ++I) {
    const SegmentInfo &Info = Exchange.infoAt(static_cast<uint32_t>(I));
    if (Info.inUse() && Info.isDonated())
      ++N;
  }
  return N;
}

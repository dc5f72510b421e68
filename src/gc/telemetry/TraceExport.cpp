//===- gc/telemetry/TraceExport.cpp - Event exporters ---------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/telemetry/TraceExport.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <vector>

#include "heap/Arena.h"

using namespace gengc;

namespace {

/// Microsecond timestamp for the trace_event "ts"/"dur" fields (the
/// format's canonical unit). Printed with sub-microsecond precision so
/// short phases do not collapse to zero-width spans.
double micros(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e3; }

/// Emits the common prefix of one trace_event record: name, category,
/// phase kind, timestamp, and the track coordinates.
void openRecord(std::ostream &OS, const char *Name, const char *Cat,
                const char *Ph, double Ts, uint32_t Pid, uint32_t Tid) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                "\"ts\":%.3f,\"pid\":%" PRIu32 ",\"tid\":%" PRIu32,
                Name, Cat, Ph, Ts, Pid, Tid);
  OS << Buf;
}

} // namespace

void gengc::emitChromeTraceEvent(std::ostream &OS, const GcEvent &E,
                                 uint32_t Pid, uint32_t Tid,
                                 int64_t OffsetNanos) {
  const uint64_t Time =
      static_cast<uint64_t>(static_cast<int64_t>(E.TimeNanos) +
                            OffsetNanos);
  char Buf[256];
  switch (E.Type) {
  case GcEventType::CollectionBegin:
    // The matching CollectionEnd carries the span; the begin event is
    // kept as an instant so a wrapped ring (end without begin) still
    // renders every surviving span.
    openRecord(OS, "collection-begin", "gc", "i", micros(Time), Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"collection\":%" PRIu32
                  ",\"generation\":%u}}",
                  E.Collection, static_cast<unsigned>(E.Generation));
    OS << Buf;
    break;
  case GcEventType::CollectionEnd:
    openRecord(OS, "collection", "gc", "X", micros(Time - E.DurNanos),
               Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"dur\":%.3f,\"args\":{\"collection\":%" PRIu32
                  ",\"generation\":%u,\"target\":%u,\"bytes_copied\":%" PRIu64
                  ",\"segments_freed\":%" PRIu64 "}}",
                  micros(E.DurNanos), E.Collection,
                  static_cast<unsigned>(E.Generation),
                  static_cast<unsigned>(E.Detail), E.A, E.B);
    OS << Buf;
    break;
  case GcEventType::PhaseSpan:
    openRecord(OS, gcPhaseName(static_cast<GcPhase>(E.Detail)), "gc-phase",
               "X", micros(Time), Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"dur\":%.3f,\"args\":{\"collection\":%" PRIu32
                  ",\"generation\":%u}}",
                  micros(E.DurNanos), E.Collection,
                  static_cast<unsigned>(E.Generation));
    OS << Buf;
    break;
  case GcEventType::GuardianResurrection:
    openRecord(OS, "guardian-resurrection", "gc-guardian", "i",
               micros(Time), Pid, Tid);
    // (generation, target) is the same coordinate pair the census
    // reports occupancy under, so resurrection traffic can be read
    // against census rows directly.
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"collection\":%" PRIu32
                  ",\"round\":%u,\"delivered\":%" PRIu64
                  ",\"generation\":%u,\"target\":%" PRIu64 "}}",
                  E.Collection, static_cast<unsigned>(E.Detail), E.A,
                  static_cast<unsigned>(E.Generation), E.B);
    OS << Buf;
    break;
  case GcEventType::TenurePromotion:
    openRecord(OS, "tenure-promotion", "gc", "i", micros(Time), Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"collection\":%" PRIu32
                  ",\"promoted\":%" PRIu64 ",\"bytes_copied\":%" PRIu64 "}}",
                  E.Collection, E.A, E.B);
    OS << Buf;
    break;
  case GcEventType::SegmentAlloc:
  case GcEventType::SegmentFree:
    openRecord(OS,
               E.Type == GcEventType::SegmentAlloc ? "segment-alloc"
                                                   : "segment-free",
               "gc-heap", "i", micros(Time), Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"first\":%" PRIu64
                  ",\"count\":%" PRIu64 ",\"space\":\"%s\","
                  "\"generation\":%u}}",
                  E.A, E.B,
                  spaceKindName(static_cast<SpaceKind>(E.Detail)),
                  static_cast<unsigned>(E.Generation));
    OS << Buf;
    break;
  case GcEventType::MessageSend:
  case GcEventType::MessageReceive:
    openRecord(OS,
               E.Type == GcEventType::MessageSend ? "msg-send"
                                                  : "msg-recv",
               "runtime", "i", micros(Time), Pid, Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"trace\":%" PRIu64
                  ",\"span\":%" PRIu64 ",\"%s\":%u}}",
                  E.A, E.B,
                  E.Type == GcEventType::MessageSend ? "dest" : "src",
                  static_cast<unsigned>(E.Detail));
    OS << Buf;
    break;
  case GcEventType::TicketSubmit:
    openRecord(OS, "ticket-submit", "runtime", "i", micros(Time), Pid,
               Tid);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":\"t\",\"args\":{\"trace\":%" PRIu64
                  ",\"span\":%" PRIu64 ",\"queue\":%u}}",
                  E.A, E.B, static_cast<unsigned>(E.Detail));
    OS << Buf;
    break;
  }
}

void gengc::writeChromeTrace(const GcTelemetry &T, std::ostream &OS) {
  const std::vector<GcEvent> Events = T.Ring.snapshot();
  OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"gengc\","
     << "\"events_recorded\":" << T.Ring.recorded()
     << ",\"events_retained\":" << Events.size() << "},\"traceEvents\":[";
  bool First = true;
  for (const GcEvent &E : Events) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n";
    emitChromeTraceEvent(OS, E, /*Pid=*/1, /*Tid=*/1, /*OffsetNanos=*/0);
  }
  OS << "\n]}\n";
}

void gengc::writeEventLog(const GcTelemetry &T, std::ostream &OS) {
  for (const GcEvent &E : T.Ring.snapshot()) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%8" PRIu64 " %12.3fus %-21s gc=%" PRIu32
                  " gen=%u detail=%u dur=%.3fus a=%" PRIu64 " b=%" PRIu64
                  "\n",
                  E.Seq, micros(E.TimeNanos), gcEventTypeName(E.Type),
                  E.Collection, static_cast<unsigned>(E.Generation),
                  static_cast<unsigned>(E.Detail), micros(E.DurNanos), E.A,
                  E.B);
    OS << Buf;
  }
}

bool gengc::dumpChromeTraceToFile(const GcTelemetry &T,
                                  const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "[gc] cannot open trace output file: %s\n",
                 Path.c_str());
    return false;
  }
  writeChromeTrace(T, OS);
  return OS.good();
}

//===- EventLog.cpp - Structured JSONL event stream --------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>
#endif

using namespace pigeon;
using namespace pigeon::telemetry;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

std::string telemetry::jsonString(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  Out += jsonEscape(S);
  Out += '"';
  return Out;
}

std::string telemetry::jsonNumber(double X) {
  if (!std::isfinite(X))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", X);
  return Buf;
}

namespace {

/// VmHWM from /proc/self/status, in KiB; 0 when unavailable. Fallback
/// for containers/sandboxes where getrusage() reports ru_maxrss as 0.
uint64_t procStatusHwmKb() {
#if defined(__linux__)
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return static_cast<uint64_t>(
          std::strtoull(Line.c_str() + 6, nullptr, 10));
#endif
  return 0;
}

} // namespace

uint64_t telemetry::peakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  // RUSAGE_THREAD reports the same ru_maxrss, the process's high-water
  // mark, without RUSAGE_SELF's walk over every thread of the process:
  // span closes call this on every serve worker.
#if defined(RUSAGE_THREAD)
  const int Who = RUSAGE_THREAD;
#else
  const int Who = RUSAGE_SELF;
#endif
  struct rusage Usage;
  if (getrusage(Who, &Usage) != 0)
    return procStatusHwmKb();
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<uint64_t>(Usage.ru_maxrss) / 1024;
#else
  uint64_t Kb = static_cast<uint64_t>(Usage.ru_maxrss);
  return Kb > 0 ? Kb : procStatusHwmKb();
#endif
#else
  return 0;
#endif
}

uint64_t telemetry::currentRssKb() {
#if defined(__linux__)
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return static_cast<uint64_t>(
          std::strtoull(Line.c_str() + 6, nullptr, 10));
#endif
  return 0;
}

double telemetry::threadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec Ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts) != 0)
    return -1.0;
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
#else
  return -1.0;
#endif
}

double telemetry::processCpuSeconds() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  auto Secs = [](const struct timeval &Tv) {
    return static_cast<double>(Tv.tv_sec) +
           static_cast<double>(Tv.tv_usec) * 1e-6;
  };
  return Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
#else
  return 0.0;
#endif
}

namespace {

/// Small sequential per-OS-thread id, assigned on first use. The main
/// thread gets 0 when it emits first, which it does in practice (the
/// stream.begin record).
uint64_t threadId() {
  static std::atomic<uint64_t> NextTid{0};
  thread_local uint64_t Tid = NextTid.fetch_add(1);
  return Tid;
}

} // namespace

//===----------------------------------------------------------------------===//
// EventLog
//===----------------------------------------------------------------------===//

EventLog &EventLog::global() {
  static EventLog Instance;
  return Instance;
}

bool EventLog::open(const std::string &OpenPath) {
  close();
  auto File = std::make_unique<std::ofstream>(OpenPath, std::ios::binary);
  if (!*File)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  OwnedFile = std::move(File);
  Out = OwnedFile.get();
  Path = OpenPath;
  Records.store(0);
  SegmentBytes = 0;
  SegmentIdx = 0;
  sinkOnLocked(StreamSink);
  beginStreamLocked();
  return true;
}

void EventLog::attach(std::ostream &OS) {
  close();
  std::lock_guard<std::mutex> Lock(Mutex);
  OwnedFile.reset();
  Out = &OS;
  Path.clear();
  Records.store(0);
  SegmentBytes = 0;
  SegmentIdx = 0;
  sinkOnLocked(StreamSink);
  beginStreamLocked();
}

void EventLog::sinkOnLocked(unsigned Sink) {
  if (Sinks.load(std::memory_order_relaxed) == 0)
    Epoch = Clock::now();
  Sinks.fetch_or(Sink, std::memory_order_release);
}

void EventLog::sinkOffLocked(unsigned Sink) {
  Sinks.fetch_and(~Sink, std::memory_order_release);
}

void EventLog::close() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!(Sinks.load(std::memory_order_acquire) & StreamSink))
    return;
  endStreamLocked();
  sinkOffLocked(StreamSink);
  Out->flush();
  Out = nullptr;
  OwnedFile.reset();
  Path.clear();
}

bool EventLog::flush() {
  std::string Body, Dest;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Out)
      Out->flush();
    if (!slowLogEnabled() || !SlowDirty)
      return true;
    for (const std::string &Line : Slow) {
      Body += Line;
      Body += '\n';
    }
    Dest = SlowPath;
    SlowDirty = false;
  }
  return writeFileAtomic(Dest, Body);
}

void EventLog::openSlowLog(const std::string &OpenPath, size_t MaxBytes) {
  std::lock_guard<std::mutex> Lock(Mutex);
  SlowPath = OpenPath;
  SlowCap = MaxBytes;
  Slow.clear();
  SlowBytes = 0;
  SlowDirty = false;
  sinkOnLocked(SlowSink);
}

bool EventLog::closeSlowLog() {
  bool Written = flush();
  std::lock_guard<std::mutex> Lock(Mutex);
  sinkOffLocked(SlowSink);
  Slow.clear();
  SlowBytes = 0;
  SlowPath.clear();
  return Written;
}

std::vector<std::string> EventLog::slowLogSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return {Slow.begin(), Slow.end()};
}

void EventLog::setRotation(uint64_t MaxBytes) {
  std::lock_guard<std::mutex> Lock(Mutex);
  RotateBytes = MaxBytes;
}

uint64_t EventLog::segmentIndex() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return SegmentIdx;
}

void EventLog::enableRing(size_t Capacity) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Ring.clear();
  RingCap = Capacity;
  RingCount = 0;
  if (Capacity > 0)
    sinkOnLocked(RingSink);
  else
    sinkOffLocked(RingSink);
}

void EventLog::disableRing() {
  std::lock_guard<std::mutex> Lock(Mutex);
  sinkOffLocked(RingSink);
  Ring.clear();
  RingCap = 0;
  RingCount = 0;
}

size_t EventLog::ringCapacity() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return RingCap;
}

uint64_t EventLog::ringTotal() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return RingCount;
}

std::vector<std::string> EventLog::ringSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Lines;
  Lines.reserve(Ring.size());
  // Ring[RingCount % RingCap] is the next overwrite target, i.e. the
  // oldest retained record once the ring has wrapped.
  size_t Start = RingCount > Ring.size() ? RingCount % RingCap : 0;
  for (size_t I = 0; I < Ring.size(); ++I)
    Lines.push_back(Ring[(Start + I) % Ring.size()]);
  return Lines;
}

bool EventLog::dumpRing(const std::string &DumpPath) const {
  std::vector<std::string> Lines = ringSnapshot();
  if (Lines.empty())
    return false;
  std::string Body;
  for (const std::string &Line : Lines) {
    Body += Line;
    Body += '\n';
  }
  return writeFileAtomic(DumpPath, Body);
}

void EventLog::beginStreamLocked() {
  writeLineLocked("stream.begin",
                  {{"schema", jsonString("pigeon.events.v2")},
                   {"pid", std::to_string(
#if defined(__unix__) || defined(__APPLE__)
                               static_cast<long>(getpid())
#else
                               0L
#endif
                                   )},
                   {"segment", std::to_string(SegmentIdx)}});
  // `records` in the trailer counts the payload lines between the two
  // frame records; the stream.begin line itself is not payload.
  Records.store(0, std::memory_order_relaxed);
}

void EventLog::rotateLocked() {
  endStreamLocked();
  OwnedFile->flush();
  OwnedFile.reset();
  Out = nullptr;
  // One previous segment is retained, so the stream's disk footprint is
  // bounded by roughly two caps regardless of uptime.
  std::string Prev = Path + ".1";
  std::remove(Prev.c_str());
  std::rename(Path.c_str(), Prev.c_str());
  auto File = std::make_unique<std::ofstream>(Path, std::ios::binary);
  if (!*File) {
    // Can't reopen (disk gone?): stream side goes quiet, the ring and
    // the slow log (if enabled) keep recording.
    sinkOffLocked(StreamSink);
    return;
  }
  OwnedFile = std::move(File);
  Out = OwnedFile.get();
  SegmentBytes = 0;
  ++SegmentIdx;
  beginStreamLocked();
}

void EventLog::endStreamLocked() {
  // Emit the trailer directly: writeLine would re-take the mutex.
  char Ts[32];
  std::snprintf(Ts, sizeof(Ts), "%.6f",
                std::chrono::duration<double>(Clock::now() - Epoch).count());
  *Out << "{\"event\":\"stream.end\",\"ts\":" << Ts
       << ",\"tid\":" << threadId()
       << ",\"records\":" << Records.load(std::memory_order_relaxed)
       << ",\"cpu\":" << jsonNumber(processCpuSeconds())
       << ",\"rss_kb\":" << peakRssKb() << "}\n";
}

void EventLog::writeLine(std::string_view Event,
                         const std::vector<EventField> &Fields, bool Slow) {
  std::lock_guard<std::mutex> Lock(Mutex);
  writeLineLocked(Event, Fields, Slow);
}

void EventLog::writeLineLocked(std::string_view Event,
                               const std::vector<EventField> &Fields,
                               bool ToSlow) {
  const unsigned On = Sinks.load(std::memory_order_acquire);
  bool StreamOn = (On & StreamSink) && Out;
  bool ToRing = On & RingSink;
  ToSlow = ToSlow && (On & SlowSink);
  if (!StreamOn && !ToRing && !ToSlow)
    return;
  char Ts[32];
  std::snprintf(Ts, sizeof(Ts), "%.6f",
                std::chrono::duration<double>(Clock::now() - Epoch).count());
  std::string Line;
  Line.reserve(64 + Fields.size() * 24);
  Line += "{\"event\":\"";
  Line += jsonEscape(Event);
  Line += "\",\"ts\":";
  Line += Ts;
  Line += ",\"tid\":";
  Line += std::to_string(threadId());
  for (const EventField &F : Fields) {
    Line += ",\"";
    Line += jsonEscape(F.Key);
    Line += "\":";
    Line += F.Json;
  }
  Line += '}';
  if (StreamOn) {
    *Out << Line << '\n';
    Records.fetch_add(1, std::memory_order_relaxed);
    SegmentBytes += Line.size() + 1;
    if (OwnedFile && RotateBytes && SegmentBytes >= RotateBytes)
      rotateLocked();
  }
  if (ToSlow) {
    SlowBytes += Line.size() + 1;
    Slow.push_back(Line);
    // Byte-capped: evict oldest first, but always keep the newest line
    // even when it alone exceeds the cap.
    while (SlowBytes > SlowCap && Slow.size() > 1) {
      SlowBytes -= Slow.front().size() + 1;
      Slow.pop_front();
    }
    SlowDirty = true;
  }
  if (ToRing) {
    if (Ring.size() < RingCap)
      Ring.push_back(std::move(Line));
    else
      Ring[RingCount % RingCap] = std::move(Line);
    ++RingCount;
  }
}

void EventLog::spanBegin(uint64_t Id, uint64_t Parent, std::string_view Name,
                         const std::vector<EventField> &Extra) {
  if (!enabled())
    return;
  std::vector<EventField> Fields;
  Fields.reserve(Extra.size() + 3);
  Fields.push_back({"span", std::to_string(Id)});
  Fields.push_back({"parent", std::to_string(Parent)});
  Fields.push_back({"name", jsonString(Name)});
  Fields.insert(Fields.end(), Extra.begin(), Extra.end());
  writeLine("span.begin", Fields);
}

void EventLog::spanEnd(uint64_t Id, uint64_t Parent, std::string_view Name,
                       double Wall, double Cpu,
                       const std::vector<EventField> &Extra) {
  if (!enabled())
    return;
  std::vector<EventField> Fields;
  Fields.reserve(Extra.size() + 6);
  Fields.push_back({"span", std::to_string(Id)});
  Fields.push_back({"parent", std::to_string(Parent)});
  Fields.push_back({"name", jsonString(Name)});
  Fields.push_back({"wall", jsonNumber(Wall)});
  if (Cpu >= 0)
    Fields.push_back({"cpu", jsonNumber(Cpu)});
  Fields.push_back({"rss_kb", std::to_string(peakRssKb())});
  Fields.insert(Fields.end(), Extra.begin(), Extra.end());
  writeLine("span.end", Fields);
}

void EventLog::record(std::string_view Event,
                      const std::vector<EventField> &Fields, bool Slow) {
  if (!enabled())
    return;
  writeLine(Event, Fields, Slow);
}

//===- EventLog.h - Structured JSONL event stream ---------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe append-only event stream (schema `pigeon.events.v2`),
/// one JSON object per line. Where the metrics registry aggregates —
/// "parse took 12 s total across 812 files" — the event log keeps the
/// *sequence*: which span ran on which thread, under which parent, for
/// how long, and what the model attributed each prediction to.
///
/// Record kinds:
///  * `stream.begin` — first line; carries the schema tag and a process
///    epoch so `ts` fields are interpretable.
///  * `span.begin` / `span.end` — emitted by every TraceScope
///    (Telemetry.cpp), stage scopes included, and by each chunk of a
///    parallel region of two or more chunks (Parallel.cpp; a one-chunk
///    region emits none). `span.end` carries wall seconds, thread-CPU
///    seconds and a peak-RSS sample.
///  * `prediction` / `attribution` — provenance records written by the
///    evaluation loops and `pigeon explain` (see Experiments.cpp): one
///    `prediction` per explained node, one `attribution` per
///    contributing AST path.
///  * `serve.request` — one served request's record (serve/SlowLog.h):
///    its identity and stage timeline in milliseconds, the same fields
///    the `timing` echo of a response carries. v2 is the version that
///    gave this record the echo's key names.
///  * `stream.end` — final line with process totals.
///
/// Every record carries `ts` (seconds since the log's first sink opened),
/// `tid` (a small sequential id assigned per OS thread on first use) and
/// `event`. The stream is line-buffered under one mutex: records from
/// concurrent threads interleave but each line is whole, so a reader can
/// parse the file line-by-line with support/Json.h (see
/// tests/eventlog_test.cpp).
///
/// The log is a process-wide singleton, disabled (all calls cheap no-ops)
/// until a sink opens: `pigeon --trace FILE` / `PIGEON_TRACE` (the
/// stream), the flight recorder, or `--slow-log FILE`. Hot paths must
/// check enabled() before building field vectors. A record is rendered
/// once and the same line goes to every sink that takes it.
///
/// Three long-running-process extensions ride on the same emit path:
///
///  * Segment rotation (`--trace-max-mb`): in owned-file mode the log
///    tracks bytes written to the current segment; past the cap it writes
///    the `stream.end` trailer, renames the segment to `<path>.1`
///    (replacing the previous rollover, so disk stays bounded at about
///    two segments) and reopens `<path>` with a fresh `stream.begin`
///    carrying an incremented `segment` field. `ts` keeps counting from
///    the original epoch across segments.
///
///  * Flight recorder (`enableRing`): a bounded in-memory ring of the
///    last N rendered records, independent of any output stream — with
///    the ring on, records are captured even when `--trace` is not.
///    Entries are pre-rendered lines, so keeping one costs a string move
///    under the same single-line mutex the stream write already holds.
///    `pigeon serve` enables it on construction; `admin:"flightrec"`
///    snapshots it live and the CLI dumps it next to the best-effort
///    metric flush on terminate/fatal paths.
///
///  * Slow log (`openSlowLog`): records emitted with the `Slow` flag —
///    `pigeon serve` sets it on the `serve.request` records over its
///    `--slow-trace-ms` threshold — are also kept in a byte-capped ring
///    (oldest evicted first, the newest always kept) that flush()
///    rewrites to one file atomically, so a scraper never reads a torn
///    file and the capture never grows without bound. Each kept line is
///    byte-identical to the one the stream got.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_EVENTLOG_H
#define PIGEON_SUPPORT_EVENTLOG_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace telemetry {

/// One extra field of an event record. \c Json is the already-rendered
/// JSON value text ("3.14", "\"quoted\"", "null", ...) — use jsonString()
/// / jsonNumber() to build it. Pre-rendering keeps the log's emit path a
/// single formatted write under the mutex.
struct EventField {
  std::string Key;
  std::string Json;
};

/// Renders \p S as a quoted JSON string literal (quotes included).
std::string jsonString(std::string_view S);

/// Renders \p X as a JSON number, or `null` when non-finite.
std::string jsonNumber(double X);

/// Peak resident set size of this process in KiB (getrusage ru_maxrss);
/// 0 when unavailable.
uint64_t peakRssKb();

/// Current resident set size of this process in KiB (/proc/self/status
/// VmRSS); 0 when unavailable. Unlike peakRssKb this can go down, which
/// is what makes before/after deltas around a load meaningful.
uint64_t currentRssKb();

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID);
/// negative when unavailable.
double threadCpuSeconds();

/// CPU seconds consumed by the whole process, user + system.
double processCpuSeconds();

/// The append-only JSONL event stream. All members are safe to call from
/// any thread; when the log is not open every emit is a cheap no-op.
class EventLog {
public:
  EventLog() = default;
  ~EventLog() { close(); }

  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  /// The process-wide instance (the one `--trace` opens).
  static EventLog &global();

  /// Opens \p Path for appending events and writes the `stream.begin`
  /// record. \returns false (log stays disabled) if the file cannot be
  /// created. Reopening an open log closes the previous stream first.
  bool open(const std::string &Path);

  /// Caps owned-file segments at \p MaxBytes (0 disables rotation, the
  /// default). When a write pushes the current segment past the cap the
  /// log writes the segment trailer, renames the file to `<path>.1` and
  /// starts a fresh segment at `<path>`. Attached streams never rotate.
  void setRotation(uint64_t MaxBytes);

  /// 0-based index of the current segment (increments per rotation).
  uint64_t segmentIndex() const;

  /// Attaches to a caller-owned stream (tests use std::ostringstream).
  /// The caller must keep \p OS alive until close().
  void attach(std::ostream &OS);

  /// Writes the `stream.end` record and detaches. Idempotent.
  void close();

  /// Flushes buffered records to the underlying stream without closing
  /// it and rewrites the slow-log file when it changed — the periodic
  /// flush of a resident `pigeon serve`, so a crash loses at most one
  /// flush interval of events. \returns false only when the slow-log
  /// write failed.
  bool flush();

  /// True while any sink is live: an open()/attach() stream, the
  /// flight-recorder ring or the slow log. Hot paths gate record
  /// construction on this.
  bool enabled() const { return Sinks.load(std::memory_order_acquire) != 0; }

  /// Turns the flight recorder on: the last \p Capacity rendered records
  /// are retained in memory (oldest overwritten first), whether or not a
  /// stream is open. Re-enabling with a new capacity clears the ring.
  void enableRing(size_t Capacity);

  /// Turns the flight recorder off and drops its contents.
  void disableRing();

  /// True while the flight recorder is capturing.
  bool ringEnabled() const {
    return Sinks.load(std::memory_order_acquire) & RingSink;
  }

  /// Ring capacity in records (0 when disabled).
  size_t ringCapacity() const;

  /// Records pushed into the ring since enableRing (including ones
  /// already overwritten).
  uint64_t ringTotal() const;

  /// The retained records, oldest first. Each entry is one complete JSON
  /// object (no trailing newline), exactly as it was (or would have
  /// been) written to the stream.
  std::vector<std::string> ringSnapshot() const;

  /// Writes the ring snapshot as JSONL to \p Path via writeFileAtomic.
  /// \returns false when the ring is off/empty or the write fails.
  bool dumpRing(const std::string &Path) const;

  /// Default byte cap of the slow log.
  static constexpr size_t DefaultSlowLogBytes = 4u << 20;

  /// Opens the slow log: records emitted with `Slow` set are kept in a
  /// ring capped at \p MaxBytes, which flush() rewrites to \p Path
  /// atomically. Reopening clears the ring.
  void openSlowLog(const std::string &Path,
                   size_t MaxBytes = DefaultSlowLogBytes);

  /// Rewrites the slow-log file one last time and turns the sink off.
  /// \returns false when that write failed. Idempotent.
  bool closeSlowLog();

  /// True while the slow log is open.
  bool slowLogEnabled() const {
    return Sinks.load(std::memory_order_acquire) & SlowSink;
  }

  /// The slow records kept, oldest first, each exactly as rendered.
  std::vector<std::string> slowLogSnapshot() const;

  /// Allocates a process-unique span id (valid ids start at 1; 0 means
  /// "no span" / top level).
  uint64_t nextSpanId() { return NextSpan.fetch_add(1) + 1; }

  /// Emits a `span.begin` record for span \p Id named \p Name nested
  /// under \p Parent (0 = top level).
  void spanBegin(uint64_t Id, uint64_t Parent, std::string_view Name,
                 const std::vector<EventField> &Extra = {});

  /// Emits the matching `span.end` with wall seconds \p Wall, thread-CPU
  /// seconds \p Cpu (negative = omit) and a peak-RSS sample.
  void spanEnd(uint64_t Id, uint64_t Parent, std::string_view Name,
               double Wall, double Cpu,
               const std::vector<EventField> &Extra = {});

  /// Emits a generic record `{"event":Event, ...Fields}`. \p Slow also
  /// keeps the line in the slow log (when it is open).
  void record(std::string_view Event, const std::vector<EventField> &Fields,
              bool Slow = false);

private:
  /// The live sinks, one bit each in Sinks.
  enum : unsigned { StreamSink = 1, RingSink = 2, SlowSink = 4 };

  void writeLine(std::string_view Event, const std::vector<EventField> &Fields,
                 bool Slow = false);
  void writeLineLocked(std::string_view Event,
                       const std::vector<EventField> &Fields,
                       bool Slow = false);
  void beginStreamLocked();
  void endStreamLocked();
  void rotateLocked();
  /// Turns \p Sink on; the first sink to open starts the `ts` epoch.
  void sinkOnLocked(unsigned Sink);
  void sinkOffLocked(unsigned Sink);

  using Clock = std::chrono::steady_clock;

  mutable std::mutex Mutex;
  std::atomic<unsigned> Sinks{0};
  std::atomic<uint64_t> NextSpan{0};
  std::atomic<uint64_t> Records{0};
  std::unique_ptr<std::ofstream> OwnedFile;
  std::ostream *Out = nullptr; ///< OwnedFile.get() or an attached stream.
  std::string Path;            ///< Owned-file path (empty when attached).
  Clock::time_point Epoch;

  // Rotation state (guarded by Mutex).
  uint64_t RotateBytes = 0;  ///< Segment cap; 0 = never rotate.
  uint64_t SegmentBytes = 0; ///< Bytes written to the current segment.
  uint64_t SegmentIdx = 0;

  // Flight-recorder ring (guarded by Mutex; Sinks is the fast gate).
  std::vector<std::string> Ring;
  size_t RingCap = 0;
  uint64_t RingCount = 0; ///< Total pushes; Ring[RingCount % RingCap] is next.

  // Slow log (guarded by Mutex): a byte-capped ring of whole lines.
  std::string SlowPath;
  std::deque<std::string> Slow;
  size_t SlowCap = DefaultSlowLogBytes;
  size_t SlowBytes = 0; ///< Bytes of Slow, one newline per line included.
  bool SlowDirty = false; ///< Changed since the last file rewrite.
};

} // namespace telemetry
} // namespace pigeon

#endif // PIGEON_SUPPORT_EVENTLOG_H

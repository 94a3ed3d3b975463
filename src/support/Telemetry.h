//===- Telemetry.h - Metrics registry and phase-trace timers ----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide observability: a registry of named counters, gauges and
/// fixed-bucket histograms, plus RAII phase timers that nest into a trace
/// tree (datagen → parse → extract → train → eval), which also renders as
/// the phase profile: flamegraph.pl folded stacks of exact self time. The
/// paper's evaluation is about trade-off curves — accuracy vs. training
/// time (Figs. 11-12), path length/width vs. cost (Fig. 10) — and this
/// module is how the pipeline accounts for where the time and the
/// contexts go.
///
/// Design constraints:
///  * cheap enough to leave on: metric handles are stable references
///    (look up once, then lock-free relaxed atomics per update);
///  * machine-readable: every snapshot serializes to stable JSON
///    ("pigeon.metrics.v1") so benches and the `pigeon` tool can emit
///    sidecars that future perf work diffs against;
///  * human-readable: the same snapshot renders as aligned tables via
///    TablePrinter.
///
/// Metric naming scheme: lower-case dotted components,
/// `<subsystem>.<noun>[.<qualifier>]` — e.g. `parse.files.ok`,
/// `paths.contexts`, `crf.epoch.seconds`. See DESIGN.md §Telemetry.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_TELEMETRY_H
#define PIGEON_SUPPORT_TELEMETRY_H

#include "support/WindowedHistogram.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace telemetry {

//===----------------------------------------------------------------------===//
// Metric kinds
//===----------------------------------------------------------------------===//

/// Monotonically increasing event count. Updates are relaxed atomics.
class Counter {
public:
  void inc() { add(1); }
  void add(uint64_t N) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void resetValue() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Last-written scalar (model size, pairs/sec, ...).
class Gauge {
public:
  void set(double X) { Value.store(X, std::memory_order_relaxed); }
  void add(double X);
  double value() const { return Value.load(std::memory_order_relaxed); }
  void resetValue() { Value.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// Fixed-bucket histogram with running count/sum/min/max. Bucket upper
/// bounds are fixed at registration; an implicit overflow bucket catches
/// everything above the last bound. Percentiles are estimated by linear
/// interpolation inside the containing bucket (clamped to observed
/// min/max), which is exact enough for the p50/p90/p99 summaries the
/// benches report.
class Histogram {
public:
  /// \param UpperBounds inclusive bucket upper bounds, strictly ascending.
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double X);
  /// Records \p N observations of the value \p X in one shot — for hot
  /// loops that tally identical values locally and flush once.
  void observeN(double X, uint64_t N);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value (0 when empty).
  double min() const;
  double max() const;
  /// Estimated value at quantile \p P in [0, 1]. NaN when the histogram
  /// is empty — there is no meaningful quantile of nothing, and NaN
  /// serializes as `null` (a previous version returned 0.0, which JSON
  /// consumers could not tell apart from a real zero percentile).
  double percentile(double P) const;

  struct Bucket {
    double UpperBound; ///< +inf for the overflow bucket.
    uint64_t Count;
  };
  std::vector<Bucket> buckets() const;

  void resetValue();

private:
  std::vector<double> Bounds;
  std::vector<std::atomic<uint64_t>> BucketCounts; // Bounds.size() + 1.
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min;
  std::atomic<double> Max;
};

/// Exponential bucket bounds for wall-clock seconds: 1µs ... ~2 min.
std::vector<double> timeBounds();

/// Linear bucket bounds {Lo, Lo+Step, ..., Hi}.
std::vector<double> linearBounds(double Lo, double Hi, double Step = 1.0);

//===----------------------------------------------------------------------===//
// Trace tree
//===----------------------------------------------------------------------===//

/// One phase in the trace tree. Children are created on first entry and
/// merged by name, so a phase entered N times is one node with Calls = N.
/// Calls and Seconds are atomics, and the children form an append-only
/// list (FirstChild, then each child's NextSibling) published with
/// release stores: scopes find and update nodes, and snapshots walk the
/// tree, without a lock. Nodes are never freed before their registry.
struct TraceNode {
  explicit TraceNode(std::string_view Name) : Name(Name) {}

  const std::string Name;
  std::atomic<uint64_t> Calls{0};
  std::atomic<double> Seconds{0.0}; ///< Wall time of the closed calls.
  std::atomic<TraceNode *> FirstChild{nullptr};
  std::atomic<TraceNode *> NextSibling{nullptr};

  /// The child named \p Name, or nullptr.
  TraceNode *findChild(std::string_view Name) const;
  /// The children in creation order.
  std::vector<const TraceNode *> children() const;
};

class MetricsRegistry;

/// The trace position of a thread: the phase node it is currently inside
/// (nullptr = top level) and the event-log span id of that phase (0 = no
/// open span). Parallel regions capture the spawning thread's context and
/// install it on workers so their scopes — and their per-chunk spans in
/// the event stream — nest under the stage that spawned them rather than
/// floating at top level. See Parallel.cpp.
struct TraceContext {
  TraceNode *Phase = nullptr;
  uint64_t Span = 0;
};

/// Reads / replaces the calling thread's trace position. setCurrent...
/// returns the previous context so callers can restore it (RAII-style)
/// when the borrowed context ends.
TraceContext currentTraceContext();
TraceContext setCurrentTraceContext(TraceContext Ctx);

/// A timed stage: a phase name plus its `<name>.wall.seconds` and
/// `<name>.cpu.seconds` histograms in the global registry, resolved once,
/// so a scope over it builds no name and takes no registry lock. Keep one
/// per stage for as long as it is timed (a member, or a function-local
/// static).
struct Stage {
  explicit Stage(std::string Name);

  std::string Name;
  Histogram &Wall;
  Histogram &Cpu;
};

/// RAII phase timer. Construction enters a node under the current phase
/// of this thread (or the registry root at top level); destruction leaves
/// it and adds the elapsed wall time. Scopes from different threads each
/// nest under their own thread's current phase. Neither end takes a lock
/// once the node exists.
///
/// A scope over a Stage also observes, on close, the stage's wall seconds
/// and the calling thread's CPU seconds (CLOCK_THREAD_CPUTIME_ID) into its
/// histograms. A thread clock keeps concurrent stages (N serve workers)
/// from counting each other's CPU; wall minus CPU is the time the thread
/// spent off-CPU, blocked or waiting on pool workers whose CPU it does
/// not see.
///
/// When the global EventLog is open, every scope additionally emits a
/// span.begin/span.end pair carrying wall time, thread-CPU time and a
/// peak-RSS sample; spans link to their parent via the thread's current
/// span id. Both records are written outside the timed interval. The
/// trace tree merges re-entries by name; the event stream keeps each
/// entry distinct.
class TraceScope {
public:
  /// Opens a phase in the global registry's trace tree.
  explicit TraceScope(std::string_view Name);
  /// Opens a phase in \p Registry (tests use private registries).
  TraceScope(MetricsRegistry &Registry, std::string_view Name);
  /// Opens \p S's phase in the global registry and times the stage.
  explicit TraceScope(const Stage &S);
  ~TraceScope();

  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

  /// Elapsed seconds since the scope opened; read mid-scope to report a
  /// phase's duration while it is still running (the experiments' training
  /// times).
  double seconds() const;

private:
  TraceScope(MetricsRegistry &Registry, std::string_view Name,
             const Stage *Timed);

  using Clock = std::chrono::steady_clock;
  TraceNode *Parent;       ///< Thread-local current node to restore.
  TraceNode *Node;
  const Stage *Timed;      ///< Stage whose histograms to feed, or null.
  uint64_t ParentSpan;     ///< Thread-local current span to restore.
  uint64_t Span = 0;       ///< Event-log span id (0 = log disabled).
  double CpuStart = -1;    ///< Thread-CPU seconds at open.
  Clock::time_point Start;
};

/// One node of the trace tree as a line of the phase profile.
struct ProfileLine {
  std::string Stack;   ///< `a;b;c`: the node's path below the root.
  uint64_t Calls;
  uint64_t SelfMicros; ///< Its seconds minus its children's, clamped at 0.
};

/// The tree under \p Root (excluded) as profile lines, depth first in
/// creation order. Self time is clamped at 0 because a still-open parent
/// has not yet added its time, and children on pool workers can sum past
/// it.
std::vector<ProfileLine> profileLines(const TraceNode &Root);

/// flamegraph.pl folded stacks: one `a;b;c <self µs>` line per profile
/// line.
std::string foldedStacks(const std::vector<ProfileLine> &Lines);

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Owns every metric and the trace tree. Handles returned by counter() /
/// gauge() / histogram() are stable for the registry's lifetime — cache
/// them (function-local static references in hot paths) and update
/// lock-free. The process-wide instance is global().
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  /// Find-or-create by name. The first registration of a histogram fixes
  /// its bucket bounds; later calls with the same name ignore \p Bounds.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name, std::vector<double> Bounds);

  /// Find-or-create a sliding-window histogram. As with histogram(), the
  /// first registration fixes bounds and window shape (\p Slices ring
  /// slices of \p SliceSeconds each); later calls ignore them.
  WindowedHistogram &windowed(std::string_view Name,
                              std::vector<double> Bounds, size_t Slices = 6,
                              double SliceSeconds = 10.0);

  /// Number of registered metrics of each kind (tests / introspection).
  size_t numCounters() const;
  size_t numGauges() const;
  size_t numHistograms() const;
  size_t numWindowed() const;

  TraceNode &traceRoot() { return Root; }
  const TraceNode &traceRoot() const { return Root; }

  /// The child of \p Parent named \p Name, appended on first use. Finding
  /// an existing child takes no lock; creating one takes the registry
  /// mutex and re-checks under it.
  TraceNode &traceChild(TraceNode &Parent, std::string_view Name);

  /// Zeroes every metric and clears the trace tree. Registered metric
  /// objects stay alive, so cached handles remain valid. The trace nodes
  /// are detached, not freed: an open scope or a lock-free reader may
  /// still hold them.
  void reset();

  /// Writes the full snapshot as stable JSON (schema pigeon.metrics.v1:
  /// {"schema", "counters", "gauges", "histograms", "trace"}).
  void writeJson(std::ostream &OS) const;

  /// writeJson() to \p Path. \returns false if the file cannot be written.
  bool writeJsonFile(const std::string &Path) const;

  /// writeJson() rendered to a string (identical bytes, including the
  /// trailing newline) — for callers that buffer before an atomic write.
  std::string jsonSnapshot() const;

  /// Renders every metric in Prometheus text exposition format v0.0.4:
  /// counters as `<name>_total`, gauges as-is, histograms with cumulative
  /// `_bucket{le=...}` plus `_sum`/`_count`, windowed histograms as
  /// summaries (`<name>_window{quantile=...}`) with a `_rate_per_sec`
  /// gauge. Metric names are sanitized to the Prometheus charset (dots
  /// become underscores).
  void writePrometheus(std::ostream &OS) const;

  /// writePrometheus() rendered to a string.
  std::string prometheusSnapshot() const;

  /// Renders counters, gauges and histogram summaries as aligned tables.
  void printTable(std::ostream &OS) const;

  /// Renders the trace tree as an indented per-phase timing table.
  void printTraceTable(std::ostream &OS) const;

private:
  mutable std::mutex Mutex;
  // std::map: stable iteration order makes the JSON output stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      Windowed;
  TraceNode Root{"total"};
  std::deque<TraceNode> Nodes; ///< Every node below Root; never moved.
};

/// Escapes \p S for inclusion in a JSON string literal (quotes excluded).
std::string jsonEscape(std::string_view S);

/// Maps a dotted metric name onto the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots and other invalid characters become
/// underscores; a leading digit gets an underscore prefix.
std::string promMetricName(std::string_view Name);

/// Escapes \p S for a Prometheus label value (backslash, quote, newline).
std::string promEscapeLabel(std::string_view S);

/// Writes \p Content to \p Path atomically: write to `<Path>.tmp`, then
/// rename over \p Path, so readers never observe a torn file. \returns
/// false (leaving any previous file intact) on any failure.
bool writeFileAtomic(const std::string &Path, std::string_view Content);

} // namespace telemetry
} // namespace pigeon

#endif // PIGEON_SUPPORT_TELEMETRY_H

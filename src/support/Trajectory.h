//===- Trajectory.h - Bench trajectory format and regression gate -*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bench-trajectory layer behind `tools/bench_report`. Every bench
/// binary writes a `<bench>.metrics.json` sidecar (pigeon.metrics.v1);
/// this module folds those sidecars into one dated trajectory document
/// (schema `pigeon.bench.v1`, committed as `BENCH_<stamp>.json` at the
/// repo root) and diffs trajectories so CI can fail on a throughput
/// regression instead of letting performance drift invisibly.
///
/// Folding rules (sidecar → BenchRecord):
///  * throughput — every gauge whose name contains `per_sec` or ends in
///    `.speedup`, plus a derived `<stage>.per_sec` (= count / sum) for
///    every `<stage>.wall.seconds` histogram with positive sum;
///  * phases — p50/p90/p99/sum/count of every `<stage>.wall.seconds`
///    histogram that holds at least one observation (an empty series,
///    such as one a registry reset leaves behind, is omitted);
///  * accuracy — every gauge whose name contains `accuracy`;
///  * latency — every gauge whose name contains `latency_ms`
///    (bench_serve's `serve.latency_ms.{p50,p99}{,.single,.concurrent}`
///    family), kept separate from throughput because the gate direction
///    flips: latency that *rises* is the regression;
///  * rss_peak_kb — the `process.rss.peak.kb` gauge when present;
///  * cores — the `parallel.bench.cores` gauge (CPUs the bench actually
///    had, from sched_getaffinity) when present.
///
/// Gates (phase times and RSS are reported but not gated — too
/// machine-sensitive):
///  * the *trajectory* gate: a throughput metric that drops below
///    (1 - threshold) × its previous value is a regression, and a
///    latency metric that rises above (1 + threshold) × its previous
///    value is too;
///  * the *speedup floor*: any `parallel.*.speedup` metric below 1.0 in
///    the current snapshot alone is a failure — parallelism that makes
///    the pipeline slower than serial is a bug regardless of history.
///    Records whose Cores == 1 are exempt (on a one-core machine every
///    honest speedup is ≈ 1.0 and the floor would only measure noise);
///    records that never recorded a core count are *not* exempt;
///  * the *latency ceiling*: any `*.p99` / `*.p99.concurrent` latency
///    metric above an absolute ceiling (ms) in the current snapshot
///    alone is a failure — tail latency needs no history to be wrong.
///    Single-client series (`.p99.single`) are exempt: the ceiling
///    targets the batched tail the SLO is written against.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_TRAJECTORY_H
#define PIGEON_SUPPORT_TRAJECTORY_H

#include "support/Json.h"

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace pigeon {
namespace bench {

/// Summary of one `<stage>.wall.seconds` histogram.
struct PhaseStats {
  double P50 = 0;
  double P90 = 0;
  double P99 = 0;
  double Sum = 0;
  uint64_t Count = 0;
};

/// Everything the trajectory keeps about one bench run. Maps are ordered
/// so the serialized document is stable.
struct BenchRecord {
  std::string Bench;
  std::map<std::string, double> Throughput;
  std::map<std::string, PhaseStats> Phases;
  std::map<std::string, double> Accuracy;
  /// Latency gauges (milliseconds, lower is better) — gated in the
  /// opposite direction from Throughput by compareTrajectories and by
  /// the absolute latencyCeiling().
  std::map<std::string, double> Latency;
  uint64_t RssPeakKb = 0;
  /// CPUs the bench process was actually allowed to run on (0 = the
  /// bench predates the gauge / didn't record it).
  uint64_t Cores = 0;
};

/// One dated snapshot across all benches (the `BENCH_<stamp>.json` file).
struct Trajectory {
  std::string Stamp; ///< e.g. "2026-08-06" — lexicographic order = age.
  std::vector<BenchRecord> Benches;
};

/// Folds one parsed pigeon.metrics.v1 sidecar into a BenchRecord named
/// \p BenchName, per the rules in the file comment. Unknown or malformed
/// members are skipped, never fatal.
BenchRecord foldSidecar(const std::string &BenchName, const json::Value &Doc);

/// Serializes \p T as schema pigeon.bench.v1.
void writeTrajectory(std::ostream &OS, const Trajectory &T);

/// writeTrajectory() to \p Path. \returns false when not writable.
bool writeTrajectoryFile(const std::string &Path, const Trajectory &T);

/// Reads a pigeon.bench.v1 document back. \returns nullopt when \p Doc
/// is not a trajectory (wrong schema / shape).
std::optional<Trajectory> parseTrajectory(const json::Value &Doc);

/// One gated metric that got worse: for throughput,
/// \c After < (1 - threshold) × \c Before; for latency,
/// \c After > (1 + threshold) × \c Before.
struct Regression {
  std::string Bench;
  std::string Metric;
  double Before = 0;
  double After = 0;
  /// After / Before — 0.8 means a throughput metric lost 20%; 1.2 means
  /// a latency metric gained 20%.
  double Ratio = 0;
};

/// Diffs the throughput and latency metrics of \p Cur against \p Prev
/// (matched by bench name, then metric name; metrics present on only
/// one side are ignored). \p Threshold is the tolerated fractional
/// drift, e.g. 0.10 for the CI gate's 10% — applied as a floor to
/// throughput and a ceiling to latency.
std::vector<Regression> compareTrajectories(const Trajectory &Prev,
                                            const Trajectory &Cur,
                                            double Threshold);

/// Absolute floor on `parallel.*.speedup` metrics in \p Cur: every such
/// metric below \p Floor is returned as a Regression (Before = the
/// floor, After = the measured value) — no previous snapshot needed, so
/// a negative speedup fails even on a repo's very first bench run.
/// Benches whose record says Cores == 1 are skipped (see file comment);
/// Cores == 0 (unrecorded) is gated.
std::vector<Regression> speedupFloor(const Trajectory &Cur,
                                     double Floor = 1.0);

/// Absolute ceiling on tail-latency metrics in \p Cur: every latency
/// metric ending in `.p99` or `.p99.concurrent` above \p CeilingMs is
/// returned as a Regression (Before = the ceiling, After = the measured
/// value) — no previous snapshot needed. Single-client percentiles
/// (`*.single`) are exempt; see the file comment.
std::vector<Regression> latencyCeiling(const Trajectory &Cur,
                                       double CeilingMs);

} // namespace bench
} // namespace pigeon

#endif // PIGEON_SUPPORT_TRAJECTORY_H

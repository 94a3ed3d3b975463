//===- SlowLog.h - Tail-latency forensics for pigeon serve ------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served request's one record, and the latency report folded from
/// it.
///
///  * RequestSample — one request's decomposition: rid, total latency and
///    the seven stage durations (`queue`, `seal`, `decode`, `parse`,
///    `extract`, `predict`, `render`) whose sum is the total by
///    construction, plus the batch context (batch size, queue depth at
///    admit).
///
///  * requestFields() — the record's one field list. It renders both the
///    `timing` echo of a response and the `serve.request` event record
///    (pigeon.events.v2), which the event stream, the flight recorder and
///    the slow log (`--slow-log FILE`, an EventLog sink that keeps the
///    records over `--slow-trace-ms`) all receive as the same line:
///
///      {"event":"serve.request","ts":1.25,"tid":3,"rid":7,"id":<echo>,
///       "ok":true,"code":null,"queue_ms":...,"seal_ms":...,
///       "decode_ms":...,"parse_ms":...,"extract_ms":...,
///       "predict_ms":...,"render_ms":...,"total_ms":12.4,
///       "batch_size":4,"depth_at_admit":3}
///
///  * trace_report folding — parseRequestSample() reads the record back;
///    foldSamples()/renderLatencyReport() turn a pile of records into the
///    latency-decomposition table `tools/trace_report` prints (per-stage
///    p50/p99 plus the top-K slowest timelines).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SERVE_SLOWLOG_H
#define PIGEON_SERVE_SLOWLOG_H

#include "support/EventLog.h"
#include "support/Json.h"

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace pigeon {
namespace serve {

/// Number of pipeline stages in a request timeline.
inline constexpr size_t NumStages = 7;

/// Stage names in pipeline order; also the metric/JSON key stems
/// (`serve.stage.<name>.seconds`, `<name>_ms`).
extern const std::array<const char *, NumStages> StageNames;

/// One request's latency decomposition plus batch context.
struct RequestSample {
  uint64_t Rid = 0;
  std::string IdJson = "null"; ///< Pre-rendered echo of the request id.
  bool Ok = true;
  std::string Code; ///< Error code; empty when Ok.
  double TotalMs = 0;
  std::array<double, NumStages> StageMs{}; ///< Sums to TotalMs.
  uint64_t BatchSize = 0;
  uint64_t DepthAtAdmit = 0;
};

/// Renders a scalar request id as its JSON echo, the `id` of responses
/// and records; other kinds render as null (serve rejects them first).
std::string renderIdEcho(const json::Value &Id);

/// Leading fields of requestFields() that identify the request (rid, id,
/// ok, code); the timing fields follow them.
inline constexpr size_t NumIdentityFields = 4;

/// The record's one field list, in order: rid, id, ok, code, then the
/// timing fields `<stage>_ms` per stage, `total_ms`, `batch_size` and
/// `depth_at_admit`. The `serve.request` event carries all of them; the
/// `timing` echo is the timing fields as one object.
std::vector<telemetry::EventField> requestFields(const RequestSample &S);

/// Reads a record back out of a parsed `serve.request` line — the
/// inverse of requestFields(). Lines of any other shape (span records,
/// stream framing, the pigeon.events.v1 `serve.request` shape, foreign
/// documents) return nullopt.
std::optional<RequestSample> parseRequestSample(const json::Value &Doc);

/// Aggregated stats of one stage across a sample set.
struct StageStats {
  uint64_t Count = 0;
  double MeanMs = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double MaxMs = 0;
  double Share = 0; ///< Fraction of summed total latency spent here.
};

/// What trace_report prints: the per-stage decomposition plus the
/// slowest requests with their full timelines.
struct LatencyReport {
  size_t Samples = 0;
  double TotalP50Ms = 0;
  double TotalP99Ms = 0;
  std::array<StageStats, NumStages> Stages;
  std::vector<RequestSample> Slowest; ///< Top-K by TotalMs, slowest first.
};

/// Folds \p Samples into a LatencyReport keeping the \p TopK slowest.
LatencyReport foldSamples(std::vector<RequestSample> Samples,
                          size_t TopK = 5);

/// Renders \p R as the two aligned tables trace_report prints.
void renderLatencyReport(std::ostream &OS, const LatencyReport &R);

} // namespace serve
} // namespace pigeon

#endif // PIGEON_SERVE_SLOWLOG_H

//===- Serve.h - Resident prediction service --------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident inference path behind `pigeon serve`: load a model bundle
/// once, then answer newline-delimited JSON requests for as long as the
/// process lives — the serving shape of the paper's pitch (JSNice-style
/// interactive queries over real codebases) and of the ROADMAP's
/// heavy-traffic north star. One-shot `pigeon predict` pays process
/// startup and a bundle open per prediction; the service pays them once.
///
/// Protocol (schema `pigeon.serve.v1`), one JSON object per line:
///
///   request:  {"id": <scalar, optional>, "lang": "js", "task": "vars",
///              "source": "...", "k": 3, "explain": false,
///              "deadline_ms": 50, "timing": false}
///   response: {"schema": "pigeon.serve.v1", "rid": 7, "id": <echo>,
///              "ok": true,
///              "predictions": [{"element": ..., "kind": ...,
///                "candidates": [{"label": ..., "score": ...}, ...],
///                "explain": [...]}]}
///   error:    {"schema": "pigeon.serve.v1", "rid": 7, "id": <echo>,
///              "ok": false,
///              "error": {"code": "unknown_lang", "message": "..."}}
///
/// `rid` is the request id the service assigned at admission: unique
/// across every connection of the serving process, in admission order,
/// and the join key between a response and its `serve.request` event
/// record. Admission-time rejections (`overloaded`, `shutting_down`)
/// happen before a rid is assigned and omit the field.
///
/// `task` defaults to the loaded bundle's task; `k` to ServeConfig's
/// DefaultK. A request that fails to decode or validate produces a
/// structured error record and never takes the server down.
///
/// Execution model: requests enter one bounded admission queue (a full
/// queue answers `overloaded` immediately instead of blocking the
/// reader) that all ServeConfig::Workers batcher workers pull from. A
/// worker that wakes takes whatever is queued, up to MaxBatch requests,
/// as one micro-batch and runs it at once — it never waits for more, so
/// a request is never held for company, and never waits behind a busy
/// worker while another is idle. Batches larger than one form only when
/// requests queue up faster than the workers take them. Each batch runs
/// the pipeline, one step of the shared prediction path (core/Predict.h)
/// per stage and request:
///
///   decode (serial) → parse (core::parsePrediction on the
///   support/Parallel pool) → extract (core::assemblePrediction:
///   path extraction + graph assembly, on the pool) → predict
///   (core::inferPredictions: one sharded CrfModel::predictBatch that
///   ranks the batch's largest k inside inference) → render
///   (core::rankPrediction: each request's own k-prefix and its
///   explanations, then JSON) + deliver in admission order within the
///   batch.
///
/// Nothing in this pipeline writes the resident bundle: a Prediction
/// interns novel strings/paths into its own delta overlays, dropped with
/// the request, so N workers share the bundle read-only (share-nothing
/// scaling, and a hostile stream of novel identifiers cannot grow the
/// resident tables). `pigeon predict` runs the same steps on the same
/// overlays, so a served response is byte-identical to it by
/// construction, at any worker count and for any batch composition
/// (pinned by serve_test and serve_cli_test). A request's `deadline_ms`
/// is checked at decode (time spent queued), after parse and after
/// extract; a request past it answers `deadline_exceeded`, naming the
/// stage, and never reaches inference or ranking.
///
/// Everything is wired into Telemetry/EventLog: `serve.requests`,
/// `serve.batch.size`, per-phase `serve.<phase>.wall.seconds`
/// histograms (p50/p99 in every sidecar), and per-request
/// `serve.request` event records nested under `serve.batch` spans.
/// Request latency, batch size and queue depth additionally feed
/// sliding-window histograms (WindowedHistogram, the registry's
/// 6 × 10 s window) so a resident server exposes live last-minute
/// percentiles, not just since-start ones. The service resolves each
/// metric handle once — when it is built, or for a counter that only
/// some outcome feeds, at that outcome's first occurrence — and a
/// request updates them through pointers, never looking a series up by
/// name.
///
/// Request lifecycle: the batcher stamps a monotonic timestamp at each
/// pipeline boundary — t_admit, t_batch_open, t_batch_seal,
/// t_decode_done, t_parse_done, t_extract_done, t_predict_done,
/// t_respond — and the seven consecutive differences are the stage
/// durations `queue` (admission queue wait), `seal` (hand-off from the
/// queue pop to the pipeline: microseconds), `decode` (JSON decode +
/// validation), `parse`, `extract` (path extraction + graph assembly),
/// `predict` (inference with the top-k ranking), `render` (explanations
/// + JSON).
/// By construction they sum to the request's total latency. Each stage
/// feeds `serve.stage.<name>.seconds` (cumulative + windowed). The
/// request's one record (RequestSample, SlowLog.h) carries them in
/// milliseconds: it is the `serve.request` event record, and
/// `"timing": true` in a request echoes its timing fields inline as a
/// `"timing"` object on the (ok) response. Records of requests slower
/// than ServeConfig::SlowTraceMs (fallback: SloP99Ms) also go to the
/// EventLog's slow log when `--slow-log` opened it. Responses without
/// `"timing"` are unchanged by all of this except the `rid` field.
///
/// The service also enables the EventLog flight recorder (a ring of the
/// last ServeConfig::FlightRecorder event records, captured even without
/// `--trace`) so the admin plane and fatal-path diagnostics can always
/// show the moments before an incident.
///
/// Admin protocol (schema `pigeon.admin.v1`): a request line carrying an
/// `"admin"` field instead of `lang`/`source` is answered synchronously
/// on the submitting thread — before admission control, so introspection
/// works during overload and drain, and admin traffic never counts
/// against `serve.requests` or occupies queue slots:
///
///   {"id": 7, "admin": "metrics"}  → full pigeon.metrics.v1 snapshot
///   {"admin": "health"}            → bundle identity, uptime, in-flight
///                                    count, queue + drain state, plus a
///                                    `window` object with the live
///                                    request rate and error rate
///   {"admin": "slo"}               → `--slo-p99-ms` target vs. the
///                                    windowed p99 of serve.request.seconds
///   {"admin": "profile"}           → the phase profile: one line per
///                                    trace-tree node (`stack`, `calls`,
///                                    `self_us`) and the same lines as
///                                    flamegraph.pl folded stacks
///   {"admin": "prom"}              → Prometheus text exposition (string)
///   {"admin": "flightrec"}         → flight-recorder snapshot: the last
///                                    N event records, embedded verbatim
///
/// Unknown verbs answer a structured `bad_request` error under the
/// pigeon.admin.v1 schema.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SERVE_SERVE_H
#define PIGEON_SERVE_SERVE_H

#include "core/ModelIO.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace pigeon {
namespace serve {

/// Tuning knobs of the resident service.
struct ServeConfig {
  /// Parallel batcher workers, all pulling from the one admission queue.
  /// 0 (the default) resolves to the hardware thread count.
  size_t Workers = 0;
  /// Most requests a worker takes from the queue as one batch; a batch
  /// always holds at least one, so 0 acts as 1.
  size_t MaxBatch = 16;
  /// Read by nothing: workers never wait for a batch to fill. Declared
  /// only so existing callers that assign it keep compiling.
  long FlushMicros = 2000;
  /// Admission-queue bound; requests beyond it answer `overloaded`.
  size_t QueueCapacity = 256;
  /// Requests with a larger `source` answer `source_too_large`.
  size_t MaxSourceBytes = 1u << 20;
  /// Top-k candidates returned when the request does not set `k`.
  int DefaultK = 3;
  /// Upper bound accepted for a request's `k`.
  int MaxK = 64;
  /// Attribution entries per element for `"explain": true` responses.
  int ExplainPaths = 5;
  /// SLO target for the windowed p99 of `serve.request.seconds`, in
  /// milliseconds; <= 0 means no target (admin:"slo" reports disabled).
  double SloP99Ms = 0;
  /// Slow-request capture threshold in milliseconds: when the EventLog's
  /// slow log is open, the `serve.request` record of a request whose
  /// total latency exceeds it is kept there. Negative (the default)
  /// falls back to SloP99Ms when that is set; with neither set, every
  /// request is captured (threshold 0 — the byte cap bounds it).
  double SlowTraceMs = -1;
  /// Capacity (records) of the EventLog flight-recorder ring the service
  /// enables on construction; 0 leaves the ring untouched.
  size_t FlightRecorder = 256;
};

/// Structured error codes of the serve protocol (stable strings, part of
/// pigeon.serve.v1).
enum class ErrorCode {
  BadRequest,       ///< Malformed JSON / wrong field types.
  UnknownLang,      ///< `lang` is not a language PIGEON knows.
  LangMismatch,     ///< Known language, but not the loaded bundle's.
  UnknownTask,      ///< `task` is not a task PIGEON knows.
  TaskMismatch,     ///< Known task, but not the loaded bundle's.
  SourceTooLarge,   ///< `source` exceeds ServeConfig::MaxSourceBytes.
  ParseFailed,      ///< The frontend produced no tree at all.
  DeadlineExceeded, ///< `deadline_ms` elapsed before inference began.
  Overloaded,       ///< Admission queue full.
  ShuttingDown,     ///< Submitted after shutdown began.
};

/// The protocol string of \p Code ("bad_request", "overloaded", ...).
const char *errorCodeName(ErrorCode Code);

/// Every serve metric handle, resolved once per process (Serve.cpp).
struct ServeMetrics;

/// A resident prediction service over one loaded model bundle.
///
/// Thread-safety: submit()/handleOne() may be called from any number of
/// threads; callbacks are invoked from a batcher worker thread (or from
/// the submitting thread for admission-time rejections) and must be
/// thread-safe themselves if they share state.
class Service {
public:
  /// Response callback: receives the rendered response line (no trailing
  /// newline). Invoked exactly once per submitted request.
  using Callback = std::function<void(std::string)>;

  /// Takes ownership of \p Bundle (loaded once, resident for the
  /// service's lifetime) and starts the batcher workers.
  explicit Service(std::unique_ptr<core::ModelBundle> Bundle,
                   ServeConfig Config = ServeConfig());
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Enqueues one raw request line. Never blocks: when the admission
  /// queue is full (or the service is shutting down) \p Done is invoked
  /// synchronously with a structured `overloaded` / `shutting_down`
  /// error; otherwise it is invoked later from a batcher worker.
  void submit(std::string Line, Callback Done);

  /// submit() + wait: processes one request synchronously through the
  /// same batching pipeline. The convenience API for benches and tests.
  std::string handleOne(const std::string &Line);

  /// Blocks until every admitted request has been answered.
  void drain();

  /// drain() + stop the batcher workers. Idempotent; the destructor
  /// calls it. Requests submitted afterwards answer `shutting_down`.
  void shutdown();

  /// Holds every batcher worker *before* it opens its next batch
  /// (in-flight batches finish). While paused, requests accumulate in
  /// the admission queue — which is how tests deterministically exercise
  /// batching, queue-full and deadline behaviour — and a drain() waits
  /// until someone calls resume().
  void pause();
  void resume();

  /// The resident bundle. Strictly read-only while serving: novel
  /// symbols and paths live in per-request delta overlays, never in the
  /// resident tables.
  const core::ModelBundle &bundle() const { return *Bundle; }

  /// Resolved batcher worker count (ServeConfig::Workers, defaulted).
  size_t workers() const { return Batchers.size(); }

  /// Requests currently waiting in the admission queue.
  size_t queueDepth() const;

  /// Requests admitted but not yet answered (queued + in-batch).
  size_t inFlight() const { return InFlight.load(std::memory_order_relaxed); }

  /// Seconds since the service was constructed.
  double uptimeSeconds() const;

private:
  struct Pending {
    uint64_t Seq = 0; ///< The request id (rid): admission order, unique.
    std::string Line;
    Callback Done;
    std::chrono::steady_clock::time_point Arrival;   ///< t_admit.
    std::chrono::steady_clock::time_point BatchOpen; ///< Popped into a batch.
    size_t DepthAtAdmit = 0; ///< Queue depth seen at admission.
  };

  void batcherLoop();
  void processBatch(std::vector<Pending> Batch);

  /// Detects and answers a pigeon.admin.v1 request synchronously.
  /// \returns true when \p Line was an admin request (Done has been
  /// invoked); false to continue down the normal serve path.
  bool tryHandleAdmin(const std::string &Line, const Callback &Done);

  std::unique_ptr<core::ModelBundle> Bundle;
  ServeConfig Config;
  ServeMetrics &Metrics;
  std::chrono::steady_clock::time_point Started;
  std::atomic<size_t> InFlight{0};

  mutable std::mutex Mutex;
  std::condition_variable WorkCV; ///< Wakes batcher workers.
  std::condition_variable IdleCV; ///< Wakes drain() waiters.
  std::deque<Pending> Queue;      ///< The admission queue, every worker's.
  uint64_t NextSeq = 1;
  size_t QueueHighWater = 0; ///< Deepest queue ever seen.
  size_t ActiveBatches = 0;  ///< Batches currently being processed.
  bool Paused = false;
  bool Stopping = false;
  std::vector<std::thread> Batchers;
};

/// Writes all of \p Data to \p Fd, retrying writes interrupted by a
/// signal (EINTR) and polling for writability on would-block (EAGAIN).
/// \returns true once every byte landed; false only on a real error
/// (EPIPE/ECONNRESET/...: the peer is gone). A frame is therefore
/// either delivered whole or abandoned whole — a signal landing
/// mid-write can never truncate a response and corrupt the
/// newline-delimited stream (regression-pinned by serve_test).
bool writeAll(int Fd, std::string_view Data);

/// poll()-driven line loop over raw file descriptors, checking \p Stop
/// (set by the CLI's SIGTERM/SIGINT handler) every 200 ms so a signal
/// produces a clean drain + telemetry flush instead of an abort. Used by
/// `pigeon serve --stdio` (fds 0/1). \returns 0 on clean EOF or stop.
int serveFdLoop(Service &S, int InFd, int OutFd,
                const std::atomic<bool> &Stop);

/// Listens on a Unix domain socket at \p Path (an existing socket file is
/// replaced), multiplexing every accepted connection on one event loop
/// (no thread per connection) until \p Stop is set or the listener
/// fails. A connection's responses are fully written before its fd
/// closes, even when the client half-closed first. \returns 0 on a
/// clean stop, nonzero when the socket could not be created.
int serveSocket(Service &S, const std::string &Path,
                const std::atomic<bool> &Stop);

/// Listens on a TCP socket at \p HostPort ("HOST:PORT"; port 0 binds an
/// ephemeral port), sharing the framed protocol, admin plane, drain
/// semantics and connection multiplexer with serveSocket(). The bound
/// port is published to \p BoundPort (when given) and printed to stderr
/// once listening. \returns 0 on a clean stop, nonzero when the address
/// could not be bound.
int serveTcp(Service &S, const std::string &HostPort,
             const std::atomic<bool> &Stop,
             std::atomic<int> *BoundPort = nullptr);

} // namespace serve
} // namespace pigeon

#endif // PIGEON_SERVE_SERVE_H

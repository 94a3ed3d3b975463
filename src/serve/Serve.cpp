//===- Serve.cpp - Resident prediction service -----------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "core/Predict.h"
#include "serve/SlowLog.h"
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <cstring>
#include <future>
#include <map>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pigeon;
using namespace pigeon::serve;
using pigeon::lang::Language;

const char *serve::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::BadRequest:
    return "bad_request";
  case ErrorCode::UnknownLang:
    return "unknown_lang";
  case ErrorCode::LangMismatch:
    return "lang_mismatch";
  case ErrorCode::UnknownTask:
    return "unknown_task";
  case ErrorCode::TaskMismatch:
    return "task_mismatch";
  case ErrorCode::SourceTooLarge:
    return "source_too_large";
  case ErrorCode::ParseFailed:
    return "parse_failed";
  case ErrorCode::DeadlineExceeded:
    return "deadline_exceeded";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::ShuttingDown:
    return "shutting_down";
  }
  return "internal";
}

namespace {

/// One request after JSON decoding, before pipeline work.
struct Decoded {
  std::string IdJson = "null"; ///< Pre-rendered echo of the request id.
  std::string Source;
  int K = 3;
  bool Explain = false;
  bool Timing = false; ///< Echo the stage decomposition inline.
  double DeadlineMs = -1; ///< Negative = no deadline.
};

/// Renders the stable response envelope prefix. \p Rid 0 omits the field
/// — admission-time rejections are answered before a rid exists.
std::string renderHead(uint64_t Rid, const std::string &IdJson) {
  std::string Out = "{\"schema\":\"pigeon.serve.v1\",";
  if (Rid)
    Out += "\"rid\":" + std::to_string(Rid) + ",";
  Out += "\"id\":" + IdJson + ",";
  return Out;
}

std::string renderError(const std::string &IdJson, ErrorCode Code,
                        const std::string &Message, uint64_t Rid = 0) {
  std::string Out = renderHead(Rid, IdJson) + "\"ok\":false,\"error\":{\"code\":\"";
  Out += errorCodeName(Code);
  Out += "\",\"message\":";
  Out += telemetry::jsonString(Message);
  Out += "}}";
  return Out;
}

/// Why decodeRequest refused a request: the protocol code and message.
struct DecodeError {
  ErrorCode Code;
  std::string Message;
};

/// Decodes and validates one request line against \p Bundle and
/// \p Config. On failure returns the error (and leaves \p Out partially
/// filled — only IdJson is meaningful then).
std::optional<DecodeError> decodeRequest(const std::string &Line,
                                         const core::ModelBundle &Bundle,
                                         const ServeConfig &Config,
                                         Decoded &Out) {
  auto Err = [](ErrorCode Code, std::string Message) {
    return DecodeError{Code, std::move(Message)};
  };
  std::string ParseError;
  std::optional<json::Value> Doc = json::parse(Line, &ParseError);
  if (!Doc)
    return Err(ErrorCode::BadRequest,
               "malformed JSON: " + ParseError);
  if (!Doc->isObject())
    return Err(ErrorCode::BadRequest,
               "request must be a JSON object");

  if (const json::Value *Id = Doc->find("id")) {
    if (Id->isArray() || Id->isObject())
      return Err(ErrorCode::BadRequest,
                 "id must be a scalar");
    Out.IdJson = renderIdEcho(*Id);
  }

  const json::Value *Lang = Doc->find("lang");
  if (!Lang || !Lang->isString())
    return Err(ErrorCode::BadRequest,
               "missing string field \"lang\"");
  std::optional<Language> L = core::languageFromToken(Lang->str());
  if (!L)
    return Err(ErrorCode::UnknownLang,
               "unknown language \"" + Lang->str() + "\"");
  if (*L != Bundle.Lang)
    return Err(ErrorCode::LangMismatch,
               std::string("model serves ") +
               lang::languageName(Bundle.Lang) + ", not " +
               lang::languageName(*L));

  if (const json::Value *Task = Doc->find("task")) {
    if (!Task->isString())
      return Err(ErrorCode::BadRequest,
                 "task must be a string");
    std::optional<core::Task> T = core::taskFromToken(Task->str());
    if (!T)
      return Err(ErrorCode::UnknownTask,
                 "unknown task \"" + Task->str() + "\"");
    if (*T != Bundle.TaskKind)
      return Err(ErrorCode::TaskMismatch,
                 std::string("model serves the ") +
                 core::taskName(Bundle.TaskKind) + " task");
  }

  const json::Value *Source = Doc->find("source");
  if (!Source || !Source->isString())
    return Err(ErrorCode::BadRequest,
               "missing string field \"source\"");
  if (Source->str().size() > Config.MaxSourceBytes)
    return Err(ErrorCode::SourceTooLarge,
               "source is " + std::to_string(Source->str().size()) +
               " bytes; limit is " +
               std::to_string(Config.MaxSourceBytes));
  Out.Source = Source->str();

  Out.K = Config.DefaultK;
  if (const json::Value *K = Doc->find("k")) {
    if (!K->isNumber() || K->number() < 1 ||
        K->number() > static_cast<double>(Config.MaxK))
      return Err(ErrorCode::BadRequest,
                 "k must be a number in [1, " +
                 std::to_string(Config.MaxK) + "]");
    Out.K = static_cast<int>(K->number());
  }

  if (const json::Value *Explain = Doc->find("explain")) {
    if (!Explain->isBool())
      return Err(ErrorCode::BadRequest,
                 "explain must be a boolean");
    Out.Explain = Explain->boolean();
  }

  if (const json::Value *Timing = Doc->find("timing")) {
    if (!Timing->isBool())
      return Err(ErrorCode::BadRequest,
                 "timing must be a boolean");
    Out.Timing = Timing->boolean();
  }

  if (const json::Value *Deadline = Doc->find("deadline_ms")) {
    if (!Deadline->isNumber() || Deadline->number() < 0)
      return Err(ErrorCode::BadRequest,
                 "deadline_ms must be a non-negative number");
    Out.DeadlineMs = Deadline->number();
  }
  return std::nullopt;
}

/// Bucket bounds for queue-depth histograms: powers of two up to the
/// default capacity, so saturation shape survives aggregation.
std::vector<double> depthBounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
}

/// Metric name of one pipeline stage's latency series.
std::string stageMetricName(size_t Stage) {
  return std::string("serve.stage.") + StageNames[Stage] + ".seconds";
}

constexpr size_t NumErrorCodes =
    static_cast<size_t>(ErrorCode::ShuttingDown) + 1;

/// A counter registered on its first update. The series an outcome
/// feeds (ok, error, one error code, an overload, a slow capture) thus
/// appear in a snapshot only once a request had that outcome; after the
/// first update an increment costs a pointer load.
class LazyCounter {
public:
  void setName(std::string Series) { Name = std::move(Series); }

  void inc() {
    telemetry::Counter *C = Handle.load();
    if (!C) {
      C = &telemetry::MetricsRegistry::global().counter(Name);
      Handle.store(C);
    }
    C->inc();
  }

private:
  std::string Name;
  std::atomic<telemetry::Counter *> Handle{nullptr};
};

} // namespace

/// Every metric the request path updates, resolved once: admission, the
/// batcher and the pipeline update them through these handles and never
/// look a series up by name. The series are process-wide, so the first
/// Service builds the one set (serveMetrics()) and every later one shares
/// it. The sliding windows take the registry's 6 × 10 s shape (the last
/// minute), and exist, empty, before the first request, so
/// admin:"metrics" shows them.
struct serve::ServeMetrics {
  explicit ServeMetrics(telemetry::MetricsRegistry &Reg)
      : Requests(Reg.counter("serve.requests")),
        QueueDepth(Reg.gauge("serve.queue.depth")),
        QueueDepthMax(Reg.gauge("serve.queue.depth.max")),
        QueueDepthFlush(Reg.histogram("serve.queue.depth.flush",
                                      depthBounds())),
        BatchSize(Reg.histogram("serve.batch.size",
                                telemetry::linearBounds(1, 32))),
        RequestSeconds(Reg.histogram("serve.request.seconds",
                                     telemetry::timeBounds())),
        QueueDepthWindow(Reg.windowed("serve.queue.depth", depthBounds())),
        BatchSizeWindow(Reg.windowed("serve.batch.size",
                                     telemetry::linearBounds(1, 32))),
        RequestSecondsWindow(Reg.windowed("serve.request.seconds",
                                          telemetry::timeBounds())),
        // Errors/sec for admin:"health": every error response observes 1
        // here; one bucket, since only the count and rate matter.
        ErrorWindow(Reg.windowed("serve.responses.error", {1})) {
    for (size_t S = 0; S < NumStages; ++S) {
      Stage[S] = &Reg.histogram(stageMetricName(S), telemetry::timeBounds());
      StageWindow[S] =
          &Reg.windowed(stageMetricName(S), telemetry::timeBounds());
    }
    Ok.setName("serve.responses.ok");
    Errors.setName("serve.responses.error");
    Overloaded.setName("serve.overloaded");
    Slow.setName("serve.slow.requests");
    for (size_t C = 0; C < NumErrorCodes; ++C)
      ErrorsByCode[C].setName(std::string("serve.responses.error.") +
                              errorCodeName(static_cast<ErrorCode>(C)));
  }

  /// One error response: the total and the windowed error rate.
  void countError() {
    Errors.inc();
    ErrorWindow.observe(1);
  }

  telemetry::Counter &Requests;
  telemetry::Gauge &QueueDepth;
  telemetry::Gauge &QueueDepthMax;
  telemetry::Histogram &QueueDepthFlush;
  telemetry::Histogram &BatchSize;
  telemetry::Histogram &RequestSeconds;
  telemetry::WindowedHistogram &QueueDepthWindow;
  telemetry::WindowedHistogram &BatchSizeWindow;
  telemetry::WindowedHistogram &RequestSecondsWindow;
  telemetry::WindowedHistogram &ErrorWindow;
  std::array<telemetry::Histogram *, NumStages> Stage;
  std::array<telemetry::WindowedHistogram *, NumStages> StageWindow;
  // The pipeline's stages: trace nodes under `serve.batch`, each with
  // its `serve.<stage>.{wall,cpu}.seconds` histograms.
  telemetry::Stage DecodeStage{"serve.decode"};
  telemetry::Stage ParseStage{"serve.parse"};
  telemetry::Stage ExtractStage{"serve.extract"};
  telemetry::Stage PredictStage{"serve.predict"};
  telemetry::Stage RenderStage{"serve.render"};
  LazyCounter Ok, Errors, Overloaded, Slow;
  std::array<LazyCounter, NumErrorCodes> ErrorsByCode;
};

namespace {

ServeMetrics &serveMetrics() {
  static ServeMetrics Metrics(telemetry::MetricsRegistry::global());
  return Metrics;
}

} // namespace

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

Service::Service(std::unique_ptr<core::ModelBundle> Bundle,
                 ServeConfig Config)
    : Bundle(std::move(Bundle)), Config(Config), Metrics(serveMetrics()),
      Started(std::chrono::steady_clock::now()) {
  // Flight recorder: keep the last N event records in memory even when
  // --trace is off, for admin:"flightrec" and fatal-path dumps.
  if (Config.FlightRecorder > 0)
    telemetry::EventLog::global().enableRing(Config.FlightRecorder);
  size_t Workers =
      this->Config.Workers ? this->Config.Workers
                           : parallel::hardwareConcurrency();
  telemetry::MetricsRegistry::global().gauge("serve.workers").set(
      static_cast<double>(Workers));
  for (size_t W = 0; W < Workers; ++W)
    Batchers.emplace_back([this] { batcherLoop(); });
}

Service::~Service() { shutdown(); }

size_t Service::queueDepth() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Queue.size();
}

double Service::uptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Started)
      .count();
}

void Service::submit(std::string Line, Callback Done) {
  // Admin introspection is answered synchronously before admission
  // control: observability must keep working when the queue is full or
  // the service is draining, and must not distort the serve metrics.
  // The substring probe keeps the JSON parse off the normal hot path.
  if (Line.find("\"admin\"") != std::string::npos &&
      tryHandleAdmin(Line, Done))
    return;

  ServeMetrics &M = Metrics;
  M.Requests.inc();
  std::unique_lock<std::mutex> L(Mutex);
  if (Stopping) {
    L.unlock();
    M.countError();
    Done(renderError("null", ErrorCode::ShuttingDown,
                     "service is shutting down"));
    return;
  }
  const size_t Queued = Queue.size();
  if (Queued >= Config.QueueCapacity) {
    L.unlock();
    // Admission-time rejection: the id is inside the line we refuse to
    // parse under load, so overloaded responses carry a null id.
    M.Overloaded.inc();
    M.countError();
    Done(renderError("null", ErrorCode::Overloaded,
                     "admission queue full (capacity " +
                         std::to_string(Config.QueueCapacity) + ")"));
    return;
  }
  Pending P;
  P.Seq = NextSeq++;
  P.Line = std::move(Line);
  P.Done = std::move(Done);
  P.Arrival = std::chrono::steady_clock::now();
  P.DepthAtAdmit = Queued;
  Queue.push_back(std::move(P));
  InFlight.fetch_add(1, std::memory_order_relaxed);
  size_t Depth = Queued + 1;
  M.QueueDepth.set(static_cast<double>(Depth));
  if (Depth > QueueHighWater) {
    QueueHighWater = Depth;
    M.QueueDepthMax.set(static_cast<double>(Depth));
  }
  L.unlock();
  WorkCV.notify_one();
}

namespace {

std::string renderAdminError(const std::string &IdJson,
                             const std::string &Message) {
  return "{\"schema\":\"pigeon.admin.v1\",\"id\":" + IdJson +
         ",\"ok\":false,\"error\":{\"code\":\"bad_request\",\"message\":" +
         telemetry::jsonString(Message) + "}}";
}

} // namespace

bool Service::tryHandleAdmin(const std::string &Line, const Callback &Done) {
  std::optional<json::Value> Doc = json::parse(Line);
  if (!Doc || !Doc->isObject())
    return false; // Not valid JSON: let the serve path answer bad_request.
  const json::Value *Admin = Doc->find("admin");
  if (!Admin)
    return false; // A serve request that merely mentions "admin".

  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.counter("serve.admin.requests").inc();

  std::string IdJson = "null";
  if (const json::Value *Id = Doc->find("id")) {
    if (Id->isArray() || Id->isObject()) {
      Done(renderAdminError(IdJson, "id must be a scalar"));
      return true;
    }
    IdJson = renderIdEcho(*Id);
  }
  if (!Admin->isString()) {
    Done(renderAdminError(IdJson, "admin must be a string verb"));
    return true;
  }
  const std::string &Verb = Admin->str();
  auto Head = [&] {
    return "{\"schema\":\"pigeon.admin.v1\",\"id\":" + IdJson +
           ",\"ok\":true,\"admin\":\"" + Verb + "\",";
  };

  if (Verb == "metrics") {
    Reg.counter("serve.admin.metrics").inc();
    std::string Snap = Reg.jsonSnapshot();
    while (!Snap.empty() && Snap.back() == '\n')
      Snap.pop_back();
    Done(Head() + "\"metrics\":" + Snap + "}");
    return true;
  }

  if (Verb == "health") {
    Reg.counter("serve.admin.health").inc();
    size_t Depth, HighWater;
    bool IsPaused, Draining;
    {
      std::lock_guard<std::mutex> L(Mutex);
      Depth = Queue.size();
      HighWater = QueueHighWater;
      IsPaused = Paused;
      Draining = Stopping;
    }
    // Live rates for the scraper: completed requests and errors over the
    // sliding window, next to the p99 admin:"slo" already reports.
    auto ReqSnap = Metrics.RequestSecondsWindow.snapshot();
    auto ErrSnap = Metrics.ErrorWindow.snapshot();
    std::string Out = Head() + "\"health\":{\"status\":\"";
    Out += Draining ? "draining" : "ok";
    Out += "\",\"lang\":" +
           telemetry::jsonString(core::languageToken(Bundle->Lang)) +
           ",\"task\":" +
           telemetry::jsonString(core::taskToken(Bundle->TaskKind)) +
           ",\"features\":" + std::to_string(Bundle->Model.numFeatures()) +
           ",\"symbols\":" + std::to_string(Bundle->Interner->size()) +
           ",\"uptime_seconds\":" + telemetry::jsonNumber(uptimeSeconds()) +
           ",\"in_flight\":" + std::to_string(inFlight()) +
           ",\"queue_depth\":" + std::to_string(Depth) +
           ",\"queue_high_water\":" + std::to_string(HighWater) +
           ",\"queue_capacity\":" + std::to_string(Config.QueueCapacity) +
           ",\"window\":{\"seconds\":" +
           telemetry::jsonNumber(ReqSnap.WindowSeconds) +
           ",\"requests\":" + std::to_string(ReqSnap.Count) +
           ",\"rate_per_sec\":" + telemetry::jsonNumber(ReqSnap.RatePerSec) +
           ",\"errors\":" + std::to_string(ErrSnap.Count) +
           ",\"error_rate_per_sec\":" +
           telemetry::jsonNumber(ErrSnap.RatePerSec) + "}" +
           ",\"paused\":" + (IsPaused ? "true" : "false") +
           ",\"draining\":" + (Draining ? "true" : "false") + "}}";
    Done(std::move(Out));
    return true;
  }

  if (Verb == "slo") {
    Reg.counter("serve.admin.slo").inc();
    auto Snap = Metrics.RequestSecondsWindow.snapshot();
    bool HasTarget = Config.SloP99Ms > 0;
    double P99Ms = Snap.P99 * 1000.0; // NaN on an empty window.
    std::string Ok = "null"; // Unknown: no target, or no recent traffic.
    if (HasTarget && Snap.Count > 0)
      Ok = P99Ms <= Config.SloP99Ms ? "true" : "false";
    std::string Out =
        Head() + "\"slo\":{\"target_p99_ms\":" +
        (HasTarget ? telemetry::jsonNumber(Config.SloP99Ms)
                   : std::string("null")) +
        ",\"window_seconds\":" + telemetry::jsonNumber(Snap.WindowSeconds) +
        ",\"count\":" + std::to_string(Snap.Count) +
        ",\"rate_per_sec\":" + telemetry::jsonNumber(Snap.RatePerSec) +
        ",\"p50_ms\":" + telemetry::jsonNumber(Snap.P50 * 1000.0) +
        ",\"p99_ms\":" + telemetry::jsonNumber(P99Ms) + ",\"ok\":" + Ok +
        "}}";
    Done(std::move(Out));
    return true;
  }

  if (Verb == "profile") {
    Reg.counter("serve.admin.profile").inc();
    std::vector<telemetry::ProfileLine> Lines =
        telemetry::profileLines(Reg.traceRoot());
    std::string Out = Head() + "\"profile\":{\"lines\":[";
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I)
        Out += ",";
      Out += "{\"stack\":" + telemetry::jsonString(Lines[I].Stack) +
             ",\"calls\":" + std::to_string(Lines[I].Calls) +
             ",\"self_us\":" + std::to_string(Lines[I].SelfMicros) + "}";
    }
    Out += "],\"folded\":" +
           telemetry::jsonString(telemetry::foldedStacks(Lines)) + "}}";
    Done(std::move(Out));
    return true;
  }

  if (Verb == "prom") {
    Reg.counter("serve.admin.prom").inc();
    Done(Head() +
         "\"prom\":" + telemetry::jsonString(Reg.prometheusSnapshot()) + "}");
    return true;
  }

  if (Verb == "flightrec") {
    Reg.counter("serve.admin.flightrec").inc();
    auto &Log = telemetry::EventLog::global();
    std::vector<std::string> Lines = Log.ringSnapshot();
    std::string Out = Head() + "\"flightrec\":{\"capacity\":" +
                      std::to_string(Log.ringCapacity()) +
                      ",\"total\":" + std::to_string(Log.ringTotal()) +
                      ",\"count\":" + std::to_string(Lines.size()) +
                      ",\"records\":[";
    // Ring entries are complete rendered JSON objects: embed verbatim.
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I)
        Out += ",";
      Out += Lines[I];
    }
    Out += "]}}";
    Done(std::move(Out));
    return true;
  }

  Reg.counter("serve.admin.bad_request").inc();
  Done(renderAdminError(IdJson, "unknown admin verb \"" + Verb + "\""));
  return true;
}

std::string Service::handleOne(const std::string &Line) {
  auto Result = std::make_shared<std::promise<std::string>>();
  std::future<std::string> F = Result->get_future();
  submit(Line,
         [Result](std::string Response) { Result->set_value(std::move(Response)); });
  return F.get();
}

void Service::drain() {
  std::unique_lock<std::mutex> L(Mutex);
  IdleCV.wait(L, [&] { return Queue.empty() && ActiveBatches == 0; });
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> L(Mutex);
    Stopping = true;
    Paused = false;
  }
  WorkCV.notify_all();
  for (std::thread &T : Batchers)
    if (T.joinable())
      T.join();
}

void Service::pause() {
  std::lock_guard<std::mutex> L(Mutex);
  Paused = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> L(Mutex);
    Paused = false;
  }
  WorkCV.notify_all();
}

void Service::batcherLoop() {
  std::unique_lock<std::mutex> L(Mutex);
  while (true) {
    WorkCV.wait(L, [&] {
      return (Stopping && Queue.empty()) || (!Paused && !Queue.empty());
    });
    if (Queue.empty())
      return; // Stopping with nothing left: clean exit.

    // Per-flush depth sample: the depth seen when a worker wakes is the
    // saturation signal the enqueue-time gauge aliases away.
    const double Depth = static_cast<double>(Queue.size());
    Metrics.QueueDepthFlush.observe(Depth);
    Metrics.QueueDepthWindow.observe(Depth);

    // Take whatever is queued, up to MaxBatch, and run it at once: no
    // request waits for company, and no request waits behind a busy
    // worker while this one is idle. A batch holds at least one request
    // whatever MaxBatch says, so a worker always makes progress. The
    // batch counts as in flight before the mutex drops, so drain() never
    // sees an empty queue and an idle service while it is on its way to
    // the pipeline.
    ++ActiveBatches;
    const auto Open = std::chrono::steady_clock::now();
    std::vector<Pending> Batch;
    do {
      Batch.push_back(std::move(Queue.front()));
      Batch.back().BatchOpen = Open;
      Queue.pop_front();
    } while (!Queue.empty() && Batch.size() < Config.MaxBatch);
    Metrics.QueueDepth.set(static_cast<double>(Queue.size()));
    L.unlock();
    processBatch(std::move(Batch));
    L.lock();
    --ActiveBatches;
    IdleCV.notify_all();
  }
}

void Service::processBatch(std::vector<Pending> Batch) {
  using Clock = std::chrono::steady_clock;
  // t_batch_seal: the batch reaches the pipeline (`seal` is the hand-off
  // from the pop). Later pipeline boundaries are stamped after their
  // stage blocks; the seven consecutive differences are the stage
  // durations and sum to each request's total latency by construction.
  const auto TSeal = Clock::now();
  ServeMetrics &M = Metrics;
  telemetry::TraceScope BatchScope("serve.batch");
  M.BatchSize.observe(static_cast<double>(Batch.size()));
  M.BatchSizeWindow.observe(static_cast<double>(Batch.size()));

  struct Item {
    Pending P;
    Decoded D;
    std::string Response; ///< Non-empty once the item failed (or finished).
    ErrorCode Code = ErrorCode::BadRequest; ///< Meaningful when failed.
    bool Failed = false;
    core::Prediction Pred;
  };
  std::vector<Item> Items(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    Items[I].P = std::move(Batch[I]);

  auto fail = [&](Item &It, ErrorCode Code, const std::string &Message) {
    It.Failed = true;
    It.Code = Code;
    It.Response = renderError(It.D.IdJson, Code, Message, It.P.Seq);
  };
  // A request whose deadline passed by \p Now stops here, naming the
  // stage it was in: the work after it (inference above all) is skipped.
  auto checkDeadline = [&](Item &It, Clock::time_point Now,
                           const char *Stage) {
    if (It.Failed || It.D.DeadlineMs < 0)
      return;
    double ElapsedMs =
        std::chrono::duration<double, std::milli>(Now - It.P.Arrival).count();
    if (ElapsedMs > It.D.DeadlineMs)
      fail(It, ErrorCode::DeadlineExceeded,
           "deadline of " + telemetry::jsonNumber(It.D.DeadlineMs) +
               " ms passed after " + telemetry::jsonNumber(ElapsedMs) +
               " ms in " + Stage);
  };

  // Decode + deadline check (serial; JSON decoding is cheap next to
  // parsing, and failing before the parallel stage keeps malformed input
  // from ever touching the pipeline).
  {
    telemetry::TraceScope Scope(M.DecodeStage);
    auto Now = Clock::now();
    for (Item &It : Items) {
      if (auto Error = decodeRequest(It.P.Line, *Bundle, Config, It.D)) {
        fail(It, Error->Code, Error->Message);
        continue;
      }
      checkDeadline(It, Now, "queue");
    }
  }
  const auto TDecode = Clock::now(); // t_decode_done.

  // Parse on the worker pool. Each request parses against a private
  // delta overlay of the bundle interner: symbols the bundle already
  // knows resolve to their final ids lock-free, only novel strings land
  // in the overlay. The resident interner is never written while
  // serving, so overlay reads stay exact even while other batcher
  // workers process their own batches.
  {
    telemetry::TraceScope Scope(M.ParseStage);
    parallel::parallelFor(Items.size(), 0, [&](size_t I) {
      Item &It = Items[I];
      if (!It.Failed)
        It.Pred = core::parsePrediction(*Bundle, It.D.Source);
    });
    for (Item &It : Items)
      if (!It.Failed && !It.Pred.parsed()) {
        const auto &Diags = It.Pred.Parse.Diags;
        std::string Reason =
            Diags.empty() ? "no tree produced" : Diags[0].str();
        fail(It, ErrorCode::ParseFailed, "parse failed: " + Reason);
      }
  }
  const auto TParse = Clock::now(); // t_parse_done.
  for (Item &It : Items)
    checkDeadline(It, TParse, "parse");

  // Extract + assemble against per-request delta overlays of the
  // bundle's path table — nothing here (or anywhere in the pipeline)
  // writes the resident bundle, which is what lets N batcher workers
  // process batches concurrently over one shared bundle. Share-nothing
  // items also make the stage safe to run on the pool.
  {
    telemetry::TraceScope Scope(M.ExtractStage);
    parallel::parallelFor(Items.size(), 0, [&](size_t I) {
      if (!Items[I].Failed)
        core::assemblePrediction(*Bundle, Items[I].Pred);
    });
  }
  const auto TExtract = Clock::now(); // t_extract_done.
  for (Item &It : Items)
    checkDeadline(It, TExtract, "extract");

  // Inference over the batch, sharded inside predictBatch.
  {
    telemetry::TraceScope Scope(M.PredictStage);
    std::vector<core::Prediction *> Live;
    for (Item &It : Items)
      if (!It.Failed)
        Live.push_back(&It.Pred);
    core::inferPredictions(*Bundle, Live);
  }
  const auto TPredict = Clock::now(); // t_predict_done.

  // Render + deliver in admission order.
  telemetry::TraceScope RenderScope(M.RenderStage);
  auto &Log = telemetry::EventLog::global();
  const double SlowThresholdMs =
      Config.SlowTraceMs >= 0
          ? Config.SlowTraceMs
          : (Config.SloP99Ms > 0 ? Config.SloP99Ms : 0.0);

  for (Item &It : Items) {
    std::string Out;
    if (!It.Failed) {
      // Strings resolve through the request's own overlay: bundle
      // symbols delegate to the shared base, provisional ones to the
      // overlay's private storage.
      core::Prediction &Pred = It.Pred;
      core::rankPrediction(*Bundle, Pred, It.D.K,
                           It.D.Explain ? std::optional(Config.ExplainPaths)
                                        : std::nullopt);
      Out = renderHead(It.P.Seq, It.D.IdJson) + "\"ok\":true,\"predictions\":[";
      bool FirstNode = true;
      for (const core::ElementPrediction &E : Pred.Elements) {
        if (!FirstNode)
          Out += ",";
        FirstNode = false;
        Out += "{\"element\":" + telemetry::jsonString(Pred.str(E.Name));
        Out += ",\"kind\":";
        Out += telemetry::jsonString(E.Kind);
        Out += ",\"candidates\":[";
        bool FirstCand = true;
        for (const auto &[Label, Score] : E.Candidates) {
          if (!FirstCand)
            Out += ",";
          FirstCand = false;
          Out += "{\"label\":" + telemetry::jsonString(Pred.str(Label)) +
                 ",\"score\":" + telemetry::jsonNumber(Score) + "}";
        }
        Out += "]";
        if (E.Explanation) {
          const crf::NodeExplanation &X = *E.Explanation;
          Out += ",\"explain\":{\"total\":" +
                 telemetry::jsonNumber(X.Total) +
                 ",\"bias\":" + telemetry::jsonNumber(X.Bias) +
                 ",\"paths\":[";
          bool FirstPath = true;
          for (const crf::Attribution &A : X.Paths) {
            if (!FirstPath)
              Out += ",";
            FirstPath = false;
            Out += "{\"path\":" +
                   telemetry::jsonString(
                       Pred.Table->render(A.Path, *Pred.Interner)) +
                   ",\"neighbor\":" +
                   (A.Neighbor.isValid()
                        ? telemetry::jsonString(Pred.str(A.Neighbor))
                        : "null") +
                   ",\"unary\":" + (A.Unary ? "true" : "false") +
                   ",\"score\":" + telemetry::jsonNumber(A.Score) + "}";
          }
          Out += "]}";
        }
        Out += "}";
      }
      Out += "]";
    }

    // t_respond: stamped once this request's predictions are rendered —
    // the record below describes a closed timeline, so the stage
    // durations sum to total_ms exactly.
    const std::array<Clock::time_point, NumStages + 1> Marks = {
        It.P.Arrival, It.P.BatchOpen, TSeal,    TDecode,
        TParse,       TExtract,       TPredict, Clock::now()};
    auto Sec = [](Clock::time_point A, Clock::time_point B) {
      return std::chrono::duration<double>(B - A).count();
    };
    RequestSample R;
    R.Rid = It.P.Seq;
    R.IdJson = It.D.IdJson;
    R.Ok = !It.Failed;
    if (It.Failed)
      R.Code = errorCodeName(It.Code);
    const double Wall = Sec(Marks.front(), Marks.back());
    R.TotalMs = Wall * 1000.0;
    for (size_t S = 0; S < NumStages; ++S) {
      const double Seconds = Sec(Marks[S], Marks[S + 1]);
      R.StageMs[S] = Seconds * 1000.0;
      M.Stage[S]->observe(Seconds);
      M.StageWindow[S]->observe(Seconds);
    }
    R.BatchSize = Items.size();
    R.DepthAtAdmit = It.P.DepthAtAdmit;

    // The one record: the timing echo below and the serve.request event
    // render the same fields.
    const bool Echo = !It.Failed && It.D.Timing;
    const bool Logged = Log.enabled();
    std::vector<telemetry::EventField> Fields;
    if (Echo || Logged)
      Fields = requestFields(R);
    if (!It.Failed) {
      if (Echo) {
        Out += ",\"timing\":{";
        for (size_t F = NumIdentityFields; F < Fields.size(); ++F) {
          if (F > NumIdentityFields)
            Out += ",";
          Out += "\"" + Fields[F].Key + "\":" + Fields[F].Json;
        }
        Out += "}";
      }
      Out += "}";
      It.Response = std::move(Out);
    }

    M.RequestSeconds.observe(Wall);
    M.RequestSecondsWindow.observe(Wall);
    if (It.Failed) {
      M.countError();
      M.ErrorsByCode[static_cast<size_t>(It.Code)].inc();
    } else {
      M.Ok.inc();
    }
    // Tail sampling: the slow log keeps the records of requests slower
    // than the threshold.
    const bool Slow =
        Logged && Log.slowLogEnabled() && R.TotalMs > SlowThresholdMs;
    if (Logged)
      Log.record("serve.request", Fields, Slow);
    if (Slow)
      M.Slow.inc();

    It.P.Done(std::move(It.Response));
    InFlight.fetch_sub(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Front-ends
//===----------------------------------------------------------------------===//

bool serve::writeAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the process — the serve binary ignores SIGPIPE, but this library
    // must not depend on that. Non-sockets (stdio, pipes) reject send()
    // with ENOTSOCK; fall back to plain write() for them.
    ssize_t W = ::send(Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
    if (W < 0 && errno == ENOTSOCK)
      W = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (W > 0) {
      Off += static_cast<size_t>(W);
      continue;
    }
    // A signal landing mid-write interrupts the syscall without losing
    // the bytes already sent — abandoning here would leave a torn frame
    // in the newline-delimited stream. Only a real error (EPIPE,
    // ECONNRESET, EBADF, ...) means the peer is gone.
    if (W < 0 && errno == EINTR)
      continue;
    if (W == 0 || errno == EAGAIN || errno == EWOULDBLOCK) {
      // Non-blocking fd with a full buffer: wait for writability
      // instead of busy-spinning; POLLERR/POLLNVAL is a dead peer.
      struct pollfd Pfd = {Fd, POLLOUT, 0};
      int Ready = ::poll(&Pfd, 1, /*timeout_ms=*/1000);
      if (Ready < 0 && errno != EINTR)
        return false;
      if (Ready > 0 && (Pfd.revents & (POLLERR | POLLNVAL)))
        return false;
      continue;
    }
    return false;
  }
  return true;
}

namespace {

/// Restores per-stream FIFO delivery on top of the batcher workers:
/// with N workers running batches side by side, responses complete in
/// no fixed order, but a client that pipelines requests down one stream
/// must read its responses in the order it sent them (the single-batcher
/// contract, and what keeps `serve --stdio` output byte-identical at
/// any worker count). Sequence numbers are assigned at submit time on
/// the single reader thread; deliver() buffers a completed frame until
/// everything before it has been written. Frames are written (or, if
/// the peer is gone, dropped by writeAll) under the same lock that
/// orders them, so two callbacks can never race each other past the
/// buffer.
struct OrderedWriter {
  std::mutex M;
  uint64_t NextWrite = 0;
  std::map<uint64_t, std::string> Held;

  /// Returns how many frames were consumed (written or abandoned) so
  /// the caller can balance its in-flight accounting.
  size_t deliver(int Fd, uint64_t Seq, std::string Frame) {
    std::lock_guard<std::mutex> L(M);
    Held.emplace(Seq, std::move(Frame));
    size_t Consumed = 0;
    while (!Held.empty() && Held.begin()->first == NextWrite) {
      // Whole frame or nothing: writeAll retries interrupted/short
      // writes and gives up only when the peer is really gone.
      writeAll(Fd, Held.begin()->second);
      Held.erase(Held.begin());
      ++NextWrite;
      ++Consumed;
    }
    return Consumed;
  }
};

/// Splits a stream front-end's input into request lines. Between calls
/// the buffer holds only an unterminated tail, so feed() scans just the
/// bytes it appended and drops the consumed prefix once: a line that
/// arrives over many reads costs time linear in its length.
class LineSplitter {
public:
  /// Appends \p Data and hands each completed non-empty line to \p Emit.
  template <typename EmitFn> void feed(std::string_view Data, EmitFn &&Emit) {
    size_t Scan = Buffer.size(); // The kept tail holds no '\n'.
    Buffer.append(Data);
    size_t Start = 0, Newline;
    while ((Newline = Buffer.find('\n', Scan)) != std::string::npos) {
      if (Newline > Start)
        Emit(Buffer.substr(Start, Newline - Start));
      Start = Scan = Newline + 1;
    }
    Buffer.erase(0, Start);
  }

  /// End of stream: an unterminated final line is still a request.
  template <typename EmitFn> void finish(EmitFn &&Emit) {
    if (!Buffer.empty())
      Emit(std::exchange(Buffer, std::string()));
  }

private:
  std::string Buffer;
};

} // namespace

int serve::serveFdLoop(Service &S, int InFd, int OutFd,
                       const std::atomic<bool> &Stop) {
  auto Writer = std::make_shared<OrderedWriter>();
  uint64_t SubmitSeq = 0; // Reader thread only.
  auto Submit = [&S, &SubmitSeq, Writer, OutFd](std::string Line) {
    const uint64_t Seq = SubmitSeq++;
    S.submit(std::move(Line), [Writer, OutFd, Seq](std::string Response) {
      Response += '\n';
      Writer->deliver(OutFd, Seq, std::move(Response));
    });
  };

  LineSplitter Lines;
  char Chunk[4096];
  while (!Stop.load(std::memory_order_relaxed)) {
    struct pollfd Pfd = {InFd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, /*timeout_ms=*/200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue; // A signal landed; re-check Stop.
      break;
    }
    if (Ready == 0)
      continue; // Timeout: re-check Stop.
    ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break; // EOF.
    Lines.feed({Chunk, static_cast<size_t>(N)}, Submit);
  }
  Lines.finish(Submit);
  S.drain();
  return 0;
}

namespace {

/// Per-connection state of the socket multiplexer. Shared (via
/// shared_ptr) with the response callbacks of its in-flight requests:
/// the event loop may see the client vanish while responses are still
/// being rendered on a batcher worker, and the fd must stay open until
/// the last of them was written — a response is delivered whole or not
/// at all, never as a torn frame.
struct MuxConn {
  int Fd = -1;
  LineSplitter Lines;    ///< Request-line splitter (event-loop only).
  uint64_t SubmitSeq = 0; ///< Per-connection submit order (event-loop only).
  OrderedWriter Writer;  ///< FIFO-orders + serializes frames on Fd.
  std::atomic<size_t> PendingWrites{0}; ///< Submitted, not yet written.
  std::atomic<bool> ReadClosed{false};  ///< EOF or hard read error seen.
};

/// Accept + read multiplexer shared by the AF_UNIX and TCP transports:
/// one poll() loop over the listener and every live connection instead
/// of a thread per connection (whose handles the old accept loop only
/// reaped at shutdown — an unbounded leak on a long-lived server).
/// Closes the listener before returning; the caller keeps ownership of
/// its address (socket file / port).
int muxLoop(Service &S, int Listener, const std::atomic<bool> &Stop) {
  auto &Reg = telemetry::MetricsRegistry::global();
  std::vector<std::shared_ptr<MuxConn>> Conns;
  char Chunk[4096];

  auto SubmitLine = [&S](const std::shared_ptr<MuxConn> &C,
                         std::string Line) {
    const uint64_t Seq = C->SubmitSeq++;
    C->PendingWrites.fetch_add(1, std::memory_order_acq_rel);
    S.submit(std::move(Line), [C, Seq](std::string Response) {
      Response += '\n';
      // deliver() may flush frames buffered by earlier callbacks too;
      // decrement once per frame actually consumed so the reaper keeps
      // the fd open until the last buffered response is on the wire.
      size_t Consumed = C->Writer.deliver(C->Fd, Seq, std::move(Response));
      C->PendingWrites.fetch_sub(Consumed, std::memory_order_acq_rel);
    });
  };

  while (!Stop.load(std::memory_order_relaxed)) {
    std::vector<struct pollfd> Pfds;
    std::vector<size_t> ConnAt; // Pfds[I + 1] watches Conns[ConnAt[I]].
    Pfds.push_back({Listener, POLLIN, 0});
    for (size_t I = 0; I < Conns.size(); ++I)
      if (!Conns[I]->ReadClosed.load(std::memory_order_relaxed)) {
        Pfds.push_back({Conns[I]->Fd, POLLIN, 0});
        ConnAt.push_back(I);
      }
    int Ready = ::poll(Pfds.data(), static_cast<nfds_t>(Pfds.size()),
                       /*timeout_ms=*/200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue; // A signal landed; re-check Stop.
      break;
    }
    if (Pfds[0].revents & POLLIN) {
      int Fd = ::accept(Listener, nullptr, nullptr);
      if (Fd >= 0) {
        Reg.counter("serve.connections").inc();
        // Response frames should not sit in Nagle's buffer behind a
        // request/response round-trip; a no-op on AF_UNIX.
        int One = 1;
        ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
        auto C = std::make_shared<MuxConn>();
        C->Fd = Fd;
        Conns.push_back(std::move(C));
      }
    }
    for (size_t I = 0; I < ConnAt.size(); ++I) {
      if (!(Pfds[I + 1].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      const std::shared_ptr<MuxConn> &C = Conns[ConnAt[I]];
      auto Submit = [&](std::string Line) { SubmitLine(C, std::move(Line)); };
      ssize_t N = ::read(C->Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        C->ReadClosed.store(true, std::memory_order_release);
        continue;
      }
      if (N == 0) {
        // EOF (possibly a half-close: the client may still be reading).
        // Responses already in flight drain before the reaper closes the
        // fd.
        C->Lines.finish(Submit);
        C->ReadClosed.store(true, std::memory_order_release);
        continue;
      }
      C->Lines.feed({Chunk, static_cast<size_t>(N)}, Submit);
    }
    // Reap: a connection whose read side ended and whose last response
    // was written closes *now*, not at shutdown.
    for (auto It = Conns.begin(); It != Conns.end();)
      if ((*It)->ReadClosed.load(std::memory_order_acquire) &&
          (*It)->PendingWrites.load(std::memory_order_acquire) == 0) {
        ::close((*It)->Fd);
        It = Conns.erase(It);
      } else {
        ++It;
      }
  }
  ::close(Listener);
  // Stop/failure: answer everything already admitted, flush it to the
  // surviving connections, then close them.
  S.drain();
  for (const std::shared_ptr<MuxConn> &C : Conns)
    ::close(C->Fd);
  return 0;
}

} // namespace

int serve::serveSocket(Service &S, const std::string &Path,
                       const std::atomic<bool> &Stop) {
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::fprintf(stderr, "error: cannot create socket: %s\n",
                 std::strerror(errno));
    return 1;
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n", Path.c_str());
    ::close(Listener);
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  ::unlink(Path.c_str()); // Replace a stale socket from a previous run.
  if (::bind(Listener, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(Listener, 64) < 0) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n", Path.c_str(),
                 std::strerror(errno));
    ::close(Listener);
    return 1;
  }
  int Rc = muxLoop(S, Listener, Stop);
  ::unlink(Path.c_str());
  return Rc;
}

int serve::serveTcp(Service &S, const std::string &HostPort,
                    const std::atomic<bool> &Stop,
                    std::atomic<int> *BoundPort) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos || Colon + 1 == HostPort.size()) {
    std::fprintf(stderr, "error: --tcp expects HOST:PORT, got %s\n",
                 HostPort.c_str());
    return 1;
  }
  std::string Host = HostPort.substr(0, Colon);
  std::string Port = HostPort.substr(Colon + 1);

  struct addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE;
  struct addrinfo *Infos = nullptr;
  int Err = ::getaddrinfo(Host.empty() ? nullptr : Host.c_str(),
                          Port.c_str(), &Hints, &Infos);
  if (Err != 0) {
    std::fprintf(stderr, "error: cannot resolve %s: %s\n", HostPort.c_str(),
                 ::gai_strerror(Err));
    return 1;
  }
  int Listener = -1;
  for (struct addrinfo *AI = Infos; AI; AI = AI->ai_next) {
    Listener = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Listener < 0)
      continue;
    int One = 1;
    ::setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Listener, AI->ai_addr, AI->ai_addrlen) == 0 &&
        ::listen(Listener, 64) == 0)
      break;
    ::close(Listener);
    Listener = -1;
  }
  ::freeaddrinfo(Infos);
  if (Listener < 0) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                 HostPort.c_str(), std::strerror(errno));
    return 1;
  }
  // Resolve the actual port (":0" binds an ephemeral one) and announce
  // it — tests and scripts discover the address from this line.
  int PortNum = 0;
  struct sockaddr_storage Bound;
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(Listener, reinterpret_cast<struct sockaddr *>(&Bound),
                    &BoundLen) == 0) {
    if (Bound.ss_family == AF_INET)
      PortNum = ntohs(reinterpret_cast<struct sockaddr_in *>(&Bound)
                          ->sin_port);
    else if (Bound.ss_family == AF_INET6)
      PortNum = ntohs(reinterpret_cast<struct sockaddr_in6 *>(&Bound)
                          ->sin6_port);
  }
  if (BoundPort)
    BoundPort->store(PortNum, std::memory_order_release);
  std::fprintf(stderr, "pigeon serve: tcp listening on %s:%d\n",
               Host.empty() ? "0.0.0.0" : Host.c_str(), PortNum);
  return muxLoop(S, Listener, Stop);
}

//===- bench_serve.cpp - Resident service throughput bench -----------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures the resident prediction service three ways over the same
/// trained bundle:
///
///  1. Closed loop, one sequential client (per-request floor).
///  2. Closed loop, several concurrent clients — the number
///     micro-batching exists for; the bench fails (exit 1) if it does
///     not beat the sequential client.
///  3. Open loop: a load generator submits at fixed offered rates on a
///     schedule that never waits for responses, so queueing delay shows
///     up in the latency numbers instead of silently throttling the
///     client (the coordinated-omission problem closed loops have).
///     Latency is measured from each request's *scheduled* arrival
///     time; the highest offered rate the service sustains (achieved ≥
///     95% of offered, ~every response ok, p99 under 150 ms) is
///     reported as `serve.openloop.max_sustained_per_sec`.
///
/// Sidecar gauges (`serve.requests_per_sec*`, `serve.openloop.*`) feed
/// the bench-trajectory throughput/latency gates like every other
/// `per_sec` / `latency_ms` metric.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ContextsIO.h"
#include "core/MappedBundle.h"
#include "serve/Serve.h"
#include "serve/SlowLog.h"
#include "support/Parallel.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pigeon;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

/// Requests are held-out sources: a fresh seed the training corpus never
/// saw, exercising the novel-symbol remap path like real traffic would.
std::vector<std::string> requestLines(int Count) {
  datagen::CorpusSpec Spec =
      datagen::defaultSpec(Language::JavaScript, bench::BenchSeed + 1);
  Spec.NumProjects = 8;
  std::vector<datagen::SourceFile> Files = datagen::generateCorpus(Spec);
  std::vector<std::string> Lines;
  for (int I = 0; I < Count; ++I)
    Lines.push_back(
        "{\"id\":" + std::to_string(I) + ",\"lang\":\"js\",\"source\":" +
        telemetry::jsonString(Files[I % Files.size()].Text) + "}");
  return Lines;
}

/// The bench's trained bundle, written once to a temp file that
/// every Service maps in place, the way `pigeon serve` loads a model.
/// The file is unlinked at destruction.
class BundleFile {
public:
  BundleFile();
  ~BundleFile() { ::unlink(Path.c_str()); }
  BundleFile(const BundleFile &) = delete;
  BundleFile &operator=(const BundleFile &) = delete;

  std::unique_ptr<ModelBundle> open() const {
    LoadDiag Diag;
    auto Bundle = openMappedBundle(Path, &Diag);
    if (!Bundle) {
      std::fprintf(stderr, "error: cannot map %s: %s\n", Path.c_str(),
                   Diag.Error.c_str());
      std::exit(1);
    }
    return Bundle;
  }

private:
  std::string Path;
};

BundleFile::BundleFile() {
  Corpus C = bench::benchCorpus(Language::JavaScript, /*Projects=*/24);
  ModelBundle Bundle = trainBundle(buildContextsArtifact(
      C, Task::VariableNames,
      bench::tunedOptions(Language::JavaScript, Task::VariableNames)));
  char Template[] = "/tmp/pigeon_bench_serve_XXXXXX";
  int Fd = ::mkstemp(Template);
  Path = Template;
  if (Fd >= 0)
    ::close(Fd);
  std::ofstream Out(Path, std::ios::binary);
  saveModelV3(Out, Bundle);
  if (Fd < 0 || !Out.flush()) {
    std::fprintf(stderr, "error: cannot write the bench bundle to %s\n",
                 Path.c_str());
    std::exit(1);
  }
}

/// Closed-loop percentile over per-request milliseconds (nearest-rank on
/// the sorted sample — exact for these small Ns, no bucketing error).
double latencyPercentile(std::vector<double> LatenciesMs, double P) {
  if (LatenciesMs.empty())
    return 0;
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  size_t Rank = static_cast<size_t>(P * static_cast<double>(
                                            LatenciesMs.size() - 1));
  return LatenciesMs[Rank];
}

double requestMs(serve::Service &S, const std::string &Line) {
  auto T0 = std::chrono::steady_clock::now();
  S.handleOne(Line);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

double runSingle(serve::Service &S, const std::vector<std::string> &Lines,
                 std::vector<double> &LatenciesMs) {
  telemetry::TraceScope Phase("serve.bench.single");
  LatenciesMs.reserve(Lines.size());
  auto Start = std::chrono::steady_clock::now();
  for (const std::string &Line : Lines)
    LatenciesMs.push_back(requestMs(S, Line));
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  return static_cast<double>(Lines.size()) / Wall;
}

double runConcurrent(serve::Service &S, const std::vector<std::string> &Lines,
                     int Clients, std::vector<double> &LatenciesMs) {
  telemetry::TraceScope Phase("serve.bench.concurrent");
  LatenciesMs.assign(Lines.size(), 0);
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (int T = 0; T < Clients; ++T)
    Threads.emplace_back([&S, &Lines, &LatenciesMs, T, Clients] {
      for (size_t I = static_cast<size_t>(T); I < Lines.size();
           I += static_cast<size_t>(Clients))
        LatenciesMs[I] = requestMs(S, Lines[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  return static_cast<double>(Lines.size()) / Wall;
}

/// One open-loop measurement at a fixed offered rate.
struct OpenLoopPoint {
  double OfferedRps = 0;
  double AchievedRps = 0; ///< Ok responses per wall second.
  double OkFraction = 0;  ///< Ok responses / submitted requests.
  double P50Ms = 0, P99Ms = 0;
  bool Sustained = false;
};

/// Drives a fresh Service at OfferedRps from a scheduled-arrival
/// generator. sleep_until a request's scheduled time, submit, never
/// wait for the response: when the service falls behind, requests pile
/// into the queue (or bounce as overloaded) and the latency — measured
/// from the *scheduled* time, not the possibly-late submit — records
/// the pileup. A closed loop would instead slow its own offered rate
/// and report flattering tails.
OpenLoopPoint runOpenLoop(const BundleFile &Bundle,
                          const std::vector<std::string> &Lines,
                          double OfferedRps) {
  using Clock = std::chrono::steady_clock;
  OpenLoopPoint Point;
  Point.OfferedRps = OfferedRps;
  // About one second of traffic per rate point, bounded so high rates
  // stay affordable and low rates stay statistically meaningful.
  size_t Total = static_cast<size_t>(
      std::min(1200.0, std::max(200.0, OfferedRps)));

  serve::Service S(Bundle.open());
  std::vector<double> LatMs(Total, -1);
  std::vector<char> Ok(Total, 0);
  std::atomic<size_t> Answered{0};

  auto Interval = std::chrono::duration<double>(1.0 / OfferedRps);
  auto Start = Clock::now();
  {
    telemetry::TraceScope Phase("serve.bench.openloop");
    for (size_t I = 0; I < Total; ++I) {
      auto Scheduled =
          Start + std::chrono::duration_cast<Clock::duration>(
                      Interval * static_cast<double>(I));
      std::this_thread::sleep_until(Scheduled); // No-op once behind.
      S.submit(Lines[I % Lines.size()],
               [&LatMs, &Ok, &Answered, I, Scheduled](std::string Resp) {
                 LatMs[I] = std::chrono::duration<double, std::milli>(
                                Clock::now() - Scheduled)
                                .count();
                 Ok[I] =
                     Resp.find("\"ok\":true") != std::string::npos ? 1 : 0;
                 Answered.fetch_add(1, std::memory_order_relaxed);
               });
    }
    S.drain(); // Every callback has run once drain returns.
  }
  double Wall =
      std::chrono::duration<double>(Clock::now() - Start).count();

  size_t OkCount = 0;
  std::vector<double> OkLat;
  OkLat.reserve(Total);
  for (size_t I = 0; I < Total; ++I)
    if (Ok[I]) {
      ++OkCount;
      OkLat.push_back(LatMs[I]);
    }
  Point.AchievedRps = static_cast<double>(OkCount) / Wall;
  Point.OkFraction =
      static_cast<double>(OkCount) / static_cast<double>(Total);
  Point.P50Ms = latencyPercentile(OkLat, 0.50);
  Point.P99Ms = latencyPercentile(OkLat, 0.99);
  Point.Sustained = Point.AchievedRps >= 0.95 * OfferedRps &&
                    Point.OkFraction >= 0.99 && Point.P99Ms <= 150.0;
  return Point;
}

} // namespace

int main() {
  const BundleFile Bundle;
  const std::vector<std::string> Lines = requestLines(96);
  const int Clients = 8;

  // Open-loop ladder first, scaled off a quick closed-loop calibration
  // probe: offered rates as multiples of the closed-loop concurrent
  // number, which is machine-relative — the interesting question is how
  // far past the closed-loop ceiling the sharded batcher can be pushed
  // before the queue (not the clients) gives out.
  double ProbeRps;
  {
    serve::ServeConfig Probe;
    Probe.MaxBatch = Clients;
    serve::Service S(Bundle.open(), Probe);
    std::vector<double> Ms;
    ProbeRps = runConcurrent(S, Lines, Clients, Ms);
  }
  const double Multipliers[] = {0.5, 1.0, 2.0, 3.0, 4.0};
  std::vector<OpenLoopPoint> Ladder;
  for (double M : Multipliers)
    Ladder.push_back(runOpenLoop(Bundle, Lines, M * ProbeRps));
  const OpenLoopPoint *Best = nullptr;
  for (const OpenLoopPoint &P : Ladder)
    if (P.Sustained && (!Best || P.OfferedRps > Best->OfferedRps))
      Best = &P;
  // Nothing sustained: report the gentlest point so the latency gauges
  // still describe a real measurement instead of vanishing.
  if (!Best)
    Best = &Ladder.front();

  // The ladder deliberately drives the service deep into overload;
  // wipe its traffic out of the registry so the stage/phase histograms
  // below describe the closed-loop runs alone — the same semantics the
  // committed trajectory baselines were recorded with. (The train-time
  // spans from savedBundle() are wiped with it; the training benches
  // own those numbers.)
  telemetry::MetricsRegistry::global().reset();

  // Sequential client: flush immediately — with exactly one request in
  // flight, waiting for stragglers is pure added latency.
  serve::ServeConfig SingleConfig;
  SingleConfig.FlushMicros = 0;
  double SingleRps;
  std::vector<double> SingleMs;
  {
    serve::Service S(Bundle.open(), SingleConfig);
    SingleRps = runSingle(S, Lines, SingleMs);
  }

  // Concurrent clients: batch size matched to the closed-loop client
  // count so full batches flush on size, not on the straggler deadline
  // — with N blocking clients there are never more than N requests in
  // flight, so a larger MaxBatch would wait out FlushMicros every round.
  serve::ServeConfig ConcurrentConfig;
  ConcurrentConfig.MaxBatch = Clients;
  double ConcurrentRps;
  std::vector<double> ConcurrentMs;
  {
    serve::Service S(Bundle.open(), ConcurrentConfig);
    ConcurrentRps = runConcurrent(S, Lines, Clients, ConcurrentMs);
  }

  double SingleP50 = latencyPercentile(SingleMs, 0.50);
  double SingleP99 = latencyPercentile(SingleMs, 0.99);
  double ConcurrentP50 = latencyPercentile(ConcurrentMs, 0.50);
  double ConcurrentP99 = latencyPercentile(ConcurrentMs, 0.99);

  // Worker scaling: the same closed-loop concurrent load against a
  // single batcher worker. Only meaningful (and only emitted) with ≥2
  // cores — on one core the "speedup" would just measure contention.
  size_t Cores = parallel::availableConcurrency();
  double WorkerSpeedup = 0;
  double OneWorkerRps = 0;
  if (Cores >= 2) {
    serve::ServeConfig OneWorker;
    OneWorker.MaxBatch = Clients;
    OneWorker.Workers = 1;
    serve::Service S(Bundle.open(), OneWorker);
    std::vector<double> Ms;
    OneWorkerRps = runConcurrent(S, Lines, Clients, Ms);
    if (OneWorkerRps > 0)
      WorkerSpeedup = ConcurrentRps / OneWorkerRps;
  }

  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.gauge("parallel.bench.cores").set(static_cast<double>(Cores));
  if (WorkerSpeedup > 0)
    Reg.gauge("serve.workers.speedup").set(WorkerSpeedup);
  Reg.gauge("serve.openloop.max_sustained_per_sec")
      .set(Best->Sustained ? Best->OfferedRps : 0.0);
  Reg.gauge("serve.openloop.offered_per_sec").set(Best->OfferedRps);
  Reg.gauge("serve.openloop.achieved_per_sec").set(Best->AchievedRps);
  Reg.gauge("serve.openloop.latency_ms.p50").set(Best->P50Ms);
  Reg.gauge("serve.openloop.latency_ms.p99").set(Best->P99Ms);
  Reg.gauge("serve.requests_per_sec").set(ConcurrentRps);
  Reg.gauge("serve.requests_per_sec.single").set(SingleRps);
  Reg.gauge("serve.requests_per_sec.concurrent").set(ConcurrentRps);
  // Closed-loop latency beside throughput, so the trajectory gate can
  // catch a change that holds rps but trades away tail latency.
  Reg.gauge("serve.latency_ms.p50").set(ConcurrentP50);
  Reg.gauge("serve.latency_ms.p99").set(ConcurrentP99);
  Reg.gauge("serve.latency_ms.p50.single").set(SingleP50);
  Reg.gauge("serve.latency_ms.p99.single").set(SingleP99);
  Reg.gauge("serve.latency_ms.p50.concurrent").set(ConcurrentP50);
  Reg.gauge("serve.latency_ms.p99.concurrent").set(ConcurrentP99);

  TablePrinter Out("pigeon serve throughput (" +
                   std::to_string(Lines.size()) + " requests)");
  Out.setHeader({"Mode", "Clients", "Requests/s", "p50 ms", "p99 ms"});
  char Buf[32], P50Buf[32], P99Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", SingleRps);
  std::snprintf(P50Buf, sizeof(P50Buf), "%.2f", SingleP50);
  std::snprintf(P99Buf, sizeof(P99Buf), "%.2f", SingleP99);
  Out.addRow({"sequential", "1", Buf, P50Buf, P99Buf});
  std::snprintf(Buf, sizeof(Buf), "%.1f", ConcurrentRps);
  std::snprintf(P50Buf, sizeof(P50Buf), "%.2f", ConcurrentP50);
  std::snprintf(P99Buf, sizeof(P99Buf), "%.2f", ConcurrentP99);
  Out.addRow({"concurrent", std::to_string(Clients), Buf, P50Buf, P99Buf});
  Out.print(std::cout);

  TablePrinter OpenLoop("open-loop offered-rate ladder (" +
                        std::to_string(Cores) + " cores, " +
                        std::to_string(parallel::hardwareConcurrency()) +
                        " hw threads)");
  OpenLoop.setHeader(
      {"Offered rps", "Achieved rps", "Ok %", "p50 ms", "p99 ms",
       "Sustained"});
  for (const OpenLoopPoint &P : Ladder) {
    char Off[32], Ach[32], OkPct[32];
    std::snprintf(Off, sizeof(Off), "%.0f", P.OfferedRps);
    std::snprintf(Ach, sizeof(Ach), "%.0f", P.AchievedRps);
    std::snprintf(OkPct, sizeof(OkPct), "%.1f", 100.0 * P.OkFraction);
    std::snprintf(P50Buf, sizeof(P50Buf), "%.2f", P.P50Ms);
    std::snprintf(P99Buf, sizeof(P99Buf), "%.2f", P.P99Ms);
    OpenLoop.addRow({Off, Ach, OkPct, P50Buf, P99Buf,
                     P.Sustained ? "yes" : "no"});
  }
  OpenLoop.print(std::cout);

  // Where the milliseconds went: the serve.stage.* histograms every
  // closed-loop Service observed into (two, or three with the one-worker
  // run), one row per pipeline stage.
  uint64_t Observed =
      Reg.histogram("serve.request.seconds", telemetry::timeBounds())
          .count();
  TablePrinter Stages("per-stage latency, all " + std::to_string(Observed) +
                      " requests");
  Stages.setHeader({"Stage", "p50 ms", "p99 ms", "Count"});
  for (const char *Stage : serve::StageNames) {
    auto &H = Reg.histogram("serve.stage." + std::string(Stage) + ".seconds",
                            telemetry::timeBounds());
    if (H.count() == 0)
      continue;
    std::snprintf(P50Buf, sizeof(P50Buf), "%.3f", H.percentile(0.50) * 1e3);
    std::snprintf(P99Buf, sizeof(P99Buf), "%.3f", H.percentile(0.99) * 1e3);
    Stages.addRow({Stage, P50Buf, P99Buf, std::to_string(H.count())});
  }
  Stages.print(std::cout);

  bench::writeBenchSidecar("bench_serve");

  // Multi-core acceptance floor, opt-in so single-core containers don't
  // fail vacuously: PIGEON_BENCH_MIN_OPENLOOP_X=3 demands the open-loop
  // max-sustained rate reach 3× the *single-worker* closed-loop
  // concurrent number — the old single-batcher baseline, re-measured on
  // this machine — on ≥4 cores.
  if (const char *Env = std::getenv("PIGEON_BENCH_MIN_OPENLOOP_X")) {
    double MinX = std::atof(Env);
    if (MinX > 0 && Cores >= 4 && OneWorkerRps > 0) {
      double MaxSustained = Best->Sustained ? Best->OfferedRps : 0.0;
      if (MaxSustained < MinX * OneWorkerRps) {
        std::fprintf(stderr,
                     "error: open-loop max sustained rate (%.1f rps) is "
                     "below %.1fx the single-worker concurrent rate (%.1f "
                     "rps) on %zu cores\n",
                     MaxSustained, MinX, OneWorkerRps, Cores);
        return 1;
      }
    }
  }

  if (ConcurrentRps <= SingleRps) {
    std::fprintf(stderr,
                 "error: concurrent throughput (%.1f rps) did not beat the "
                 "sequential client (%.1f rps) — batching is not paying for "
                 "itself\n",
                 ConcurrentRps, SingleRps);
    return 1;
  }
  return 0;
}

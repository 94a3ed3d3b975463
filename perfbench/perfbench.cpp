//===- perfbench.cpp - PIGEON's benchmark: serve, train, ingest -----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives PIGEON through its public functions the way its two kinds of
/// users do, and measures it from outside:
///
///   serve   a resident serve::Service over a mapped v3 JS variable-name
///           bundle answers held-out sources, first in an open loop at a
///           fixed absolute rate, then in a closed loop with one client
///           per available core;
///   train   the `pigeon train` route on a Java corpus: parse, build the
///           contexts artifact, assemble, train the CRF on the project
///           split's train side, save a v3 bundle, map it back and score
///           the held-out side (the `pigeon eval` route);
///   ingest  the `pigeon extract --out` route for all four languages at
///           the process-default thread count.
///
/// Two subcommands:
///
///   pigeon_perfbench prep --workload W --seed N --work DIR --run-dir DIR
///       generates the workload's inputs: a trained bundle and request
///       lines (serve), source trees on disk (train, ingest). Inputs that
///       do not depend on the seed are cached under --work.
///   pigeon_perfbench run --workload W --seed N --seconds S --trace 0|1
///                        --work DIR --run-dir DIR --rate R [--spans FILE]
///       measures. The last line of standard output is a JSON object
///       {"correct", "attempted", "failed", "metrics"} holding the
///       metrics this run measured (end-to-end ones with --trace 0, the
///       per-layer ledger with --trace 1); run.py completes it against
///       BENCHMARK.json. A human-readable summary goes to standard error.
///
/// Every run checks the program's outputs and reports correct=false on
/// any mismatch: served predictions must equal a serial replay through
/// the layer functions; held-out accuracy and the bundle checksum must
/// repeat across passes and runs; ingested artifacts must be
/// byte-identical to a one-thread reference.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "core/ContextsIO.h"
#include "core/MappedBundle.h"
#include "core/ModelIO.h"
#include "core/Pipeline.h"
#include "lang/js/JsParser.h"
#include "serve/Serve.h"
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pigeon;
using namespace perfbench;
using lang::Language;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants
//===----------------------------------------------------------------------===//

/// Seed of every training corpus (PLDI 2018), fixed so accuracy and the
/// bundle checksum repeat exactly whatever the workload seed.
constexpr uint64_t CorpusSeed = 2018;
/// JS projects (16 files each) the serve bundle is trained on.
constexpr int ServeTrainProjects = 48;
/// The held-out JS corpus the serve requests are cut from: a seed the
/// bundle never saw, fixed so every pool holds the same files and only
/// their grouping into requests and the order depend on the workload
/// seed (accuracy then measures the model, not the draw).
constexpr uint64_t HeldOutSeed = CorpusSeed + 1;
/// The fixed request size mix: how each project's 16 files split into
/// requests (one function per file; a request is about 0.2 to 2.7 KB).
/// Every pattern is used for ServePatternRepeats projects: 64 projects,
/// 296 requests, mostly small.
const std::vector<std::vector<int>> RequestPatterns = {
    {16},
    {12, 4},
    {8, 8},
    {8, 4, 2, 1, 1},
    {8, 4, 2, 1, 1},
    {4, 4, 4, 2, 1, 1},
    {4, 4, 4, 2, 1, 1},
    {2, 2, 2, 2, 2, 2, 1, 1, 1, 1},
};
constexpr int ServePatternRepeats = 8;
constexpr int RequestK = 3;
/// Java projects of the train workload: 4096 files.
constexpr int TrainProjects = 256;
constexpr double TestFraction = 0.25;
/// Projects per language of the ingest workload (2048 files each), and
/// the seed of those corpora.
constexpr int IngestProjects = 128;
constexpr uint64_t IngestCorpusSeed = CorpusSeed + 2;
/// Set-ups timed per run; setup_s is their median. Mapping the bundle
/// and starting the service takes tens of microseconds, so serve times
/// many more.
constexpr size_t SetupReps = 9;
constexpr size_t ServeSetupReps = 41;
/// Share of a serve run given to the open loop; the closed loop gets the
/// rest.
constexpr double OpenLoopShare = 0.6;

constexpr Language AllLangs[] = {Language::JavaScript, Language::Java,
                                 Language::Python, Language::CSharp};

const char *langToken(Language Lang) {
  switch (Lang) {
  case Language::JavaScript:
    return "js";
  case Language::Java:
    return "java";
  case Language::Python:
    return "py";
  case Language::CSharp:
    return "cs";
  }
  return "js";
}

//===----------------------------------------------------------------------===//
// Options and small utilities
//===----------------------------------------------------------------------===//

struct Options {
  std::string Mode;
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 0;
  bool Trace = false;
  double Rate = 0;
  fs::path Work;
  fs::path RunDir;
  fs::path Spans;
};

[[noreturn]] void die(const std::string &Message) {
  std::cerr << "perfbench: error: " << Message << "\n";
  std::exit(1);
}

std::optional<Options> parseOptions(int argc, char **argv) {
  if (argc < 2)
    return std::nullopt;
  Options O;
  O.Mode = argv[1];
  for (int I = 2; I + 1 < argc; I += 2) {
    std::string Key = argv[I], Val = argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--rate")
      O.Rate = std::atof(Val.c_str());
    else if (Key == "--work")
      O.Work = Val;
    else if (Key == "--run-dir")
      O.RunDir = Val;
    else if (Key == "--spans")
      O.Spans = Val;
    else
      return std::nullopt;
  }
  if ((O.Mode != "prep" && O.Mode != "run") || O.Work.empty() ||
      O.RunDir.empty() || (O.Mode == "run" && (O.Seconds <= 0 || O.Rate <= 0)))
    return std::nullopt;
  return O;
}

std::optional<std::string> readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad())
    return std::nullopt;
  return Buffer.str();
}

/// Writes through a temporary name and renames, so a concurrent or
/// interrupted run never sees a partial file.
void writeFileAtomic(const fs::path &Path, std::string_view Data) {
  fs::path Tmp = Path;
  Tmp += ".tmp" + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
    Out.flush();
    if (!Out)
      die("cannot write " + Tmp.string());
  }
  fs::rename(Tmp, Path);
}

uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : Bytes)
    H = (H ^ static_cast<uint8_t>(C)) * 1099511628211ULL;
  return H;
}

double peakRssMb() {
  return static_cast<double>(telemetry::peakRssKb()) / 1024.0;
}

/// Writes \p Files under \p Root as <project>/<file>.<ext>, one directory
/// per project so the project split survives the trip through disk, and
/// renames the finished tree into place.
void writeCorpus(const fs::path &Root,
                 const std::vector<datagen::SourceFile> &Files,
                 Language Lang) {
  fs::path Tmp = Root;
  Tmp += ".tmp" + std::to_string(::getpid());
  fs::remove_all(Tmp);
  for (const datagen::SourceFile &F : Files) {
    fs::path Dir = Tmp / F.Project;
    fs::create_directories(Dir);
    std::ofstream Out(Dir / (F.FileName + "." + langToken(Lang)),
                      std::ios::binary);
    Out << F.Text;
    if (!Out)
      die("cannot write corpus under " + Tmp.string());
  }
  fs::remove_all(Root);
  fs::rename(Tmp, Root);
}

/// Corpus load, the set-up of the train and ingest workloads: reads every
/// source file under \p Root in sorted path order, as `pigeon train DIR`
/// does; the project is the file's directory.
std::vector<datagen::SourceFile> loadCorpus(const fs::path &Root,
                                            Language Lang) {
  std::vector<fs::path> Paths;
  const std::string Ext = std::string(".") + langToken(Lang);
  for (const auto &Entry : fs::recursive_directory_iterator(Root))
    if (Entry.is_regular_file() && Entry.path().extension() == Ext)
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<datagen::SourceFile> Out;
  Out.reserve(Paths.size());
  for (const fs::path &P : Paths) {
    auto Text = readFile(P);
    if (!Text)
      die("cannot read " + P.string());
    datagen::SourceFile F;
    F.Project = P.parent_path().filename().string();
    F.FileName = P.stem().string();
    F.Text = std::move(*Text);
    Out.push_back(std::move(F));
  }
  if (Out.empty())
    die("no sources under " + Root.string());
  return Out;
}

size_t sourceBytes(const std::vector<datagen::SourceFile> &Files) {
  size_t N = 0;
  for (const datagen::SourceFile &F : Files)
    N += F.Text.size();
  return N;
}

/// Extraction options of the variable-name task at the tuned length and
/// width for \p Lang (0 threads = the process default).
core::CrfExperimentOptions extractOptions(Language Lang, size_t Threads = 0) {
  core::CrfExperimentOptions XO;
  XO.Extraction = core::tunedExtraction(Lang, core::Task::VariableNames);
  XO.Threads = Threads;
  return XO;
}

/// An untrained bundle that takes over \p Art's symbol and path space, as
/// `pigeon train` does before training.
core::ModelBundle bundleFor(core::ContextsArtifact &Art) {
  core::ModelBundle Bundle;
  Bundle.Lang = Art.Lang;
  Bundle.TaskKind = Art.TaskKind;
  Bundle.Extraction = Art.Extraction;
  Bundle.Interner = std::move(Art.Interner);
  Bundle.Table = std::move(Art.Table);
  return Bundle;
}

/// Calibrated parallelism of this machine: the same spin loop on every
/// available core at once against one core alone. An N-thread spin that
/// takes N times as long as a 1-thread one means one effective core.
double effectiveCores() {
  const size_t N = parallel::availableConcurrency();
  const uint64_t Iters = 20'000'000;
  std::vector<uint64_t> Sink(N);
  auto Spin = [&](size_t Threads) {
    auto T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (size_t T = 0; T < Threads; ++T)
      Ts.emplace_back([&Sink, T, Iters] {
        uint64_t X = 88172645463325252ULL + T;
        for (uint64_t I = 0; I < Iters; ++I) {
          X ^= X << 13;
          X ^= X >> 7;
          X ^= X << 17;
        }
        Sink[T] = X;
      });
    for (std::thread &Th : Ts)
      Th.join();
    return secondsBetween(T0, Clock::now());
  };
  std::vector<double> Ratios;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double One = Spin(1);
    double All = Spin(N);
    Ratios.push_back(static_cast<double>(N) * One / All);
  }
  return median(Ratios);
}

/// Traced ÷ untraced time of the same work, minus one. Minima, because
/// interference from other processes only ever adds time.
double traceOverhead(const std::vector<double> &UntracedS,
                     const std::vector<double> &TracedS) {
  return *std::min_element(TracedS.begin(), TracedS.end()) /
             *std::min_element(UntracedS.begin(), UntracedS.end()) -
         1;
}

/// The bands bench.reconcile_ratio must lie in. Serve compares the
/// replay's layer calls with handleOne, which adds decode, render,
/// telemetry and the hand-off to a batcher thread; the batch workloads
/// compare their pipeline calls with the pass that makes them.
constexpr double ServeReconcileBand[2] = {0.6, 1.05};
constexpr double BatchReconcileBand[2] = {0.9, 1.0};

/// What one run measured, handed to print().
struct Outcome {
  ResultLine Result;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;

  void fail(const std::string &Why) {
    Correct = false;
    Problems.push_back(Why);
  }

  void addReconcile(double Ratio, const double (&Band)[2]) {
    Result.add("bench.reconcile_ratio", Ratio, "ratio");
    if (!(Ratio >= Band[0] && Ratio <= Band[1]))
      fail("reconcile ratio " + std::to_string(Ratio) + " outside [" +
           std::to_string(Band[0]) + ", " + std::to_string(Band[1]) + "]");
  }
};

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

fs::path serveBundlePath(const Options &O) {
  return O.Work / "serve-js-vars.v3";
}

fs::path serveRequestsPath(const Options &O) {
  return O.RunDir / "serve-requests.jsonl";
}

/// Trains the serve bundle on the seed-2018 JS corpus through the
/// `pigeon train` route and writes it in the v3 format `pigeon serve`
/// maps. Seed-independent, so cached.
void prepServeBundle(const Options &O) {
  fs::path Path = serveBundlePath(O);
  if (fs::exists(Path))
    return;
  datagen::CorpusSpec Spec =
      datagen::defaultSpec(Language::JavaScript, CorpusSeed);
  Spec.NumProjects = ServeTrainProjects;
  core::Corpus C =
      core::parseCorpus(datagen::generateCorpus(Spec), Language::JavaScript);
  core::ContextsArtifact Art = core::buildContextsArtifact(
      C, core::Task::VariableNames, extractOptions(Language::JavaScript));
  core::ModelBundle Bundle = bundleFor(Art);
  crf::ElementSelector Selector = core::selectorFor(Bundle.TaskKind);
  std::vector<crf::CrfGraph> Graphs;
  for (const core::FileRecord &Rec : Art.Files)
    Graphs.push_back(core::buildGraphFromRecord(Rec, Selector));
  Bundle.Model.train(Graphs);
  std::ostringstream OS;
  core::saveModelV3(OS, Bundle);
  writeFileAtomic(Path, OS.str());
}

/// Cuts the seed's request pool out of the held-out JS corpus: the seed
/// assigns a size pattern to each project, splits the project's files
/// into requests of those sizes (each request keeps file order) and
/// shuffles the requests.
void prepServeRequests(const Options &O) {
  datagen::CorpusSpec Spec =
      datagen::defaultSpec(Language::JavaScript, HeldOutSeed);
  Spec.NumProjects =
      static_cast<int>(RequestPatterns.size()) * ServePatternRepeats;
  std::vector<datagen::SourceFile> Files = datagen::generateCorpus(Spec);
  std::map<std::string, std::vector<size_t>> ByProject;
  for (size_t I = 0; I < Files.size(); ++I)
    ByProject[Files[I].Project].push_back(I);

  Rng R = Rng::forStream(O.Seed, "perfbench-serve-requests");
  std::vector<size_t> Patterns;
  for (int Rep = 0; Rep < ServePatternRepeats; ++Rep)
    for (size_t P = 0; P < RequestPatterns.size(); ++P)
      Patterns.push_back(P);
  R.shuffle(Patterns);
  std::vector<std::string> Sources;
  size_t Project = 0;
  for (auto &[Name, Indices] : ByProject) {
    std::vector<int> Sizes = RequestPatterns[Patterns[Project++]];
    R.shuffle(Sizes);
    R.shuffle(Indices);
    size_t Next = 0;
    for (int Size : Sizes) {
      std::vector<size_t> Pick(Indices.begin() + Next,
                               Indices.begin() + Next + Size);
      Next += Size;
      std::sort(Pick.begin(), Pick.end());
      std::string Source;
      for (size_t F : Pick)
        Source += Files[F].Text + "\n";
      Sources.push_back(std::move(Source));
    }
  }
  R.shuffle(Sources);
  std::string Out;
  for (size_t I = 0; I < Sources.size(); ++I)
    Out += "{\"id\":" + std::to_string(I) + ",\"lang\":\"js\",\"k\":" +
           std::to_string(RequestK) +
           ",\"source\":" + telemetry::jsonString(Sources[I]) + "}\n";
  writeFileAtomic(serveRequestsPath(O), Out);
}

struct ServeRequests {
  std::vector<std::string> Lines;
  std::vector<std::string> Sources;
};

ServeRequests loadServeRequests(const Options &O) {
  auto Text = readFile(serveRequestsPath(O));
  if (!Text)
    die("missing request file; run prep first");
  ServeRequests Out;
  std::istringstream In(*Text);
  std::string Line;
  while (std::getline(In, Line)) {
    auto Doc = json::parse(Line);
    const json::Value *Src = Doc ? Doc->find("source") : nullptr;
    if (!Src || !Src->isString())
      die("malformed request line");
    Out.Sources.push_back(Src->str());
    Out.Lines.push_back(std::move(Line));
  }
  if (Out.Lines.empty())
    die("empty request pool");
  return Out;
}

/// One request replayed serially through the layer functions the service
/// runs: js::parse into a delta overlay of the bundle interner,
/// extraction into a delta PathTable, buildGraph, predict, and topK per
/// unknown, rendered exactly as the service renders predictions.
struct Replay {
  bool Parsed = false;
  std::string Predictions; ///< `"predictions":[...]` as served.
  size_t Unknowns = 0;
  size_t Top1Correct = 0;
  size_t Contexts = 0;
  size_t BundleHits = 0; ///< Contexts whose path the bundle already has.
  size_t Factors = 0;
};

Replay replayRequest(const core::ModelBundle &B, const std::string &Source,
                     SpanLedger &L, int64_t Rid) {
  Replay Out;
  StringInterner SI(StringInterner::Delta, *B.Interner);
  lang::ParseResult R;
  {
    SpanScope S(L, "lang.parse", Rid);
    R = js::parse(Source, SI);
  }
  if (!R.Tree)
    return Out;
  Out.Parsed = true;
  paths::PathTable Table(paths::PathTable::Delta, B.Table);
  std::vector<paths::PathContext> Contexts;
  {
    SpanScope S(L, "paths.extract", Rid);
    Contexts = paths::extractPathContexts(*R.Tree, B.Extraction, Table);
  }
  crf::CrfGraph G;
  {
    SpanScope S(L, "crf.build_graph", Rid);
    G = crf::buildGraph(*R.Tree, Contexts, core::selectorFor(B.TaskKind));
  }
  std::vector<Symbol> Pred;
  {
    SpanScope S(L, "crf.predict", Rid);
    Pred = B.Model.predict(G);
  }
  std::vector<std::vector<std::pair<Symbol, double>>> Top(G.Unknowns.size());
  {
    SpanScope S(L, "crf.topk", Rid);
    for (size_t I = 0; I < G.Unknowns.size(); ++I)
      Top[I] = B.Model.topK(G, G.Unknowns[I], Pred, RequestK);
  }

  Out.Contexts = Contexts.size();
  for (const paths::PathContext &C : Contexts)
    if (!(C.Path & paths::PathTable::ProvisionalBit))
      ++Out.BundleHits;
  Out.Factors = G.Factors.size();
  Out.Unknowns = G.Unknowns.size();
  std::string &P = Out.Predictions;
  P = "\"predictions\":[";
  for (size_t I = 0; I < G.Unknowns.size(); ++I) {
    const crf::GraphNode &Node = G.Nodes[G.Unknowns[I]];
    if (I)
      P += ",";
    P += "{\"element\":" + telemetry::jsonString(SI.str(Node.Gold));
    P += ",\"kind\":";
    P += telemetry::jsonString(
        Node.Element != ast::InvalidElement
            ? ast::elementKindName(R.Tree->element(Node.Element).Kind)
            : "?");
    P += ",\"candidates\":[";
    for (size_t C = 0; C < Top[I].size(); ++C) {
      if (C)
        P += ",";
      P += "{\"label\":" + telemetry::jsonString(SI.str(Top[I][C].first)) +
           ",\"score\":" + telemetry::jsonNumber(Top[I][C].second) + "}";
    }
    P += "]}";
    if (!Top[I].empty() && SI.str(Top[I][0].first) == SI.str(Node.Gold))
      ++Out.Top1Correct;
  }
  P += "]";
  return Out;
}

enum class Verdict { Ok, Mismatch, Overloaded, Error };

/// Compares a served response with the replay's predictions.
Verdict checkResponse(const std::string &Resp, const std::string &Expected) {
  if (Resp.find("\"ok\":true,") == std::string::npos)
    return Resp.find("\"code\":\"overloaded\"") != std::string::npos
               ? Verdict::Overloaded
               : Verdict::Error;
  size_t At = Resp.find("\"predictions\":");
  if (At == std::string::npos ||
      Resp.compare(At, Expected.size(), Expected) != 0)
    return Verdict::Mismatch;
  char Next = At + Expected.size() < Resp.size() ? Resp[At + Expected.size()]
                                                 : '\0';
  return Next == '}' || Next == ',' ? Verdict::Ok : Verdict::Mismatch;
}

/// Tallies of checked responses.
struct Tally {
  uint64_t Sent = 0, Ok = 0, Mismatch = 0, Overloaded = 0, Error = 0;

  void add(Verdict V) {
    ++Sent;
    switch (V) {
    case Verdict::Ok:
      ++Ok;
      break;
    case Verdict::Mismatch:
      ++Mismatch;
      break;
    case Verdict::Overloaded:
      ++Overloaded;
      break;
    case Verdict::Error:
      ++Error;
      break;
    }
  }
  void add(const Tally &T) {
    Sent += T.Sent;
    Ok += T.Ok;
    Mismatch += T.Mismatch;
    Overloaded += T.Overloaded;
    Error += T.Error;
  }
};

/// Open loop: request I is due at Start + I / Rate and is submitted then,
/// whether or not earlier ones were answered. Latency runs from the due
/// time, so a stall also charges the requests queued behind it; Lag is
/// how late the generator itself submitted.
struct OpenLoop {
  std::vector<double> LatencyMs;
  std::vector<double> LagMs;
  std::vector<std::string> Responses;
  std::vector<size_t> Line;
};

/// Sends whole pools (about Rate x Seconds requests, at least one pool),
/// so every request is sampled equally often whatever the pool order.
OpenLoop runOpenLoop(serve::Service &S, const std::vector<std::string> &Lines,
                     double Rate, double Seconds) {
  const size_t Pools = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             Rate * Seconds / static_cast<double>(Lines.size()))));
  const size_t N = Pools * Lines.size();
  OpenLoop Out;
  Out.LatencyMs.assign(N, 0);
  Out.LagMs.assign(N, 0);
  Out.Responses.assign(N, std::string());
  Out.Line.assign(N, 0);
  const auto Interval = std::chrono::duration<double>(1.0 / Rate);
  const auto Start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t I = 0; I < N; ++I) {
    const auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                                 Interval * static_cast<double>(I));
    std::this_thread::sleep_until(Due);
    Out.LagMs[I] =
        std::chrono::duration<double, std::milli>(Clock::now() - Due).count();
    Out.Line[I] = I % Lines.size();
    S.submit(Lines[Out.Line[I]], [&Out, I, Due](std::string Resp) {
      Out.LatencyMs[I] =
          std::chrono::duration<double, std::milli>(Clock::now() - Due)
              .count();
      Out.Responses[I] = std::move(Resp);
    });
  }
  S.drain(); // Every callback has run once drain() returns.
  return Out;
}

/// Closed loop: Clients threads take the pool's requests in order from a
/// shared cursor, each sending its next request when the previous answer
/// arrives; one pass answers the whole pool once. Passes repeat until
/// Seconds have elapsed.
struct ClosedLoop {
  std::vector<double> PassSeconds;
  Tally Checked;
};

ClosedLoop runClosedLoop(serve::Service &S,
                         const std::vector<std::string> &Lines,
                         const std::vector<Replay> &Expected, size_t Clients,
                         double Seconds) {
  ClosedLoop Out;
  const auto Begin = Clock::now();
  do {
    std::vector<Tally> PerClient(Clients);
    std::atomic<size_t> Cursor{0};
    const auto T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (size_t C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t I; (I = Cursor.fetch_add(1)) < Lines.size();)
          PerClient[C].add(
              checkResponse(S.handleOne(Lines[I]), Expected[I].Predictions));
      });
    for (std::thread &T : Threads)
      T.join();
    Out.PassSeconds.push_back(secondsBetween(T0, Clock::now()));
    for (const Tally &T : PerClient)
      Out.Checked.add(T);
  } while (secondsBetween(Begin, Clock::now()) < Seconds);
  return Out;
}

/// Reads a number field out of a response's "timing" echo.
double timingField(const std::string &Resp, const char *Key) {
  size_t T = Resp.find("\"timing\":{");
  if (T == std::string::npos)
    return std::nan("");
  size_t K = Resp.find(std::string("\"") + Key + "\":", T);
  if (K == std::string::npos)
    return std::nan("");
  return std::strtod(Resp.c_str() + K + std::strlen(Key) + 3, nullptr);
}

Tally checkOpenLoop(const OpenLoop &OL, const std::vector<Replay> &Expected) {
  Tally T;
  for (size_t I = 0; I < OL.Responses.size(); ++I)
    T.add(checkResponse(OL.Responses[I], Expected[OL.Line[I]].Predictions));
  return T;
}

void noteTally(Outcome &Out, const char *Phase, const Tally &T) {
  Out.Attempted += T.Sent;
  Out.Failed += T.Sent - T.Ok - T.Mismatch;
  if (T.Mismatch)
    Out.fail(std::string(Phase) + ": " + std::to_string(T.Mismatch) +
             " responses differ from the serial replay");
  std::cerr << Phase << ": " << T.Sent << " sent, " << T.Ok << " ok, "
            << T.Mismatch << " mismatched, " << T.Overloaded
            << " overloaded, " << T.Error << " other errors\n";
}

void runServe(const Options &O, Outcome &Out) {
  ServeRequests Req = loadServeRequests(O);
  const std::string BundlePath = serveBundlePath(O).string();

  // Set-up: map the bundle (the `pigeon serve` load path) and start the
  // service, ServeSetupReps times; the last service is the one measured.
  std::vector<double> SetupS, OpenMs;
  std::unique_ptr<serve::Service> Svc;
  for (size_t Rep = 0; Rep < ServeSetupReps; ++Rep) {
    Svc.reset();
    core::LoadDiag Diag;
    const auto T0 = Clock::now();
    std::unique_ptr<core::ModelBundle> B =
        core::openMappedBundle(BundlePath, &Diag);
    const auto T1 = Clock::now();
    if (!B)
      die("cannot map " + BundlePath + ": " + Diag.Error);
    if (!B->Model.frozen())
      die("served model is not frozen: not the production load path");
    Svc = std::make_unique<serve::Service>(std::move(B));
    const auto T2 = Clock::now();
    SetupS.push_back(secondsBetween(T0, T2));
    OpenMs.push_back(secondsBetween(T0, T1) * 1e3);
  }
  const core::ModelBundle &Bundle = Svc->bundle();

  // Reference predictions for every pool line (also the accuracy).
  SpanLedger Off(false);
  std::vector<Replay> Expected;
  size_t Unknowns = 0, Top1 = 0, Bytes = 0;
  for (size_t I = 0; I < Req.Sources.size(); ++I) {
    Expected.push_back(replayRequest(Bundle, Req.Sources[I], Off, -1));
    if (!Expected.back().Parsed)
      die("request " + std::to_string(I) + " does not parse");
    Unknowns += Expected.back().Unknowns;
    Top1 += Expected.back().Top1Correct;
    Bytes += Req.Sources[I].size();
  }
  const double Accuracy =
      static_cast<double>(Top1) / static_cast<double>(Unknowns);
  std::cerr << "serve: pool of " << Req.Lines.size() << " requests, "
            << Bytes << " source bytes, " << Unknowns
            << " predicted elements, accuracy " << Accuracy << "\n";
  const size_t Clients = parallel::availableConcurrency();

  if (!O.Trace) {
    OpenLoop OL =
        runOpenLoop(*Svc, Req.Lines, O.Rate, O.Seconds * OpenLoopShare);
    Tally OT = checkOpenLoop(OL, Expected);
    noteTally(Out, "open loop", OT);
    ClosedLoop CL =
        runClosedLoop(*Svc, Req.Lines, Expected, Clients,
                      O.Seconds * (1 - OpenLoopShare));
    noteTally(Out, "closed loop", CL.Checked);

    std::vector<double> OkMs;
    for (size_t I = 0; I < OL.Responses.size(); ++I)
      if (checkResponse(OL.Responses[I], Expected[OL.Line[I]].Predictions) ==
          Verdict::Ok)
        OkMs.push_back(OL.LatencyMs[I]);
    Tail P99 = tail(OkMs);
    Tail Lag = tail(OL.LagMs);
    double PassTotal = 0;
    for (double S : CL.PassSeconds)
      PassTotal += S;
    Tally All = OT;
    All.add(CL.Checked);
    std::cerr << "open loop: " << O.Rate << " rps offered, " << OkMs.size()
              << " ok samples, tail percentile " << P99.Q * 100
              << ", generator lag p" << Lag.Q * 100 << " " << Lag.Value
              << " ms\nclosed loop: " << Clients << " clients, "
              << CL.PassSeconds.size() << " passes\n";

    Out.Result.add("setup_s", median(SetupS), "s");
    Out.Result.add("wall_s", median(CL.PassSeconds), "s");
    Out.Result.add("requests_per_s",
                   static_cast<double>(CL.Checked.Sent) / PassTotal, "1/s");
    Out.Result.add("latency_p50_ms", median(OkMs), "ms");
    Out.Result.add("latency_p99_ms", P99.Value, "ms");
    Out.Result.add("accuracy", Accuracy, "ratio");
    Out.Result.add("peak_rss_mb", peakRssMb(), "MB");
    Out.Result.add("ok_share",
                   static_cast<double>(All.Ok) / static_cast<double>(All.Sent),
                   "ratio");
    return;
  }

  // Traced run, part one: the open loop with the service's public
  // "timing" echo, which splits each request's latency into queue wait,
  // straggler (seal) wait and the pipeline stages.
  std::vector<std::string> TimedLines;
  for (const std::string &L : Req.Lines)
    TimedLines.push_back("{\"timing\":true," + L.substr(1));
  OpenLoop OL =
      runOpenLoop(*Svc, TimedLines, O.Rate, O.Seconds * OpenLoopShare);
  Tally OT = checkOpenLoop(OL, Expected);
  noteTally(Out, "traced open loop", OT);
  std::vector<double> QueueMs, SealMs, Batch;
  for (const std::string &Resp : OL.Responses) {
    double Q = timingField(Resp, "queue_ms");
    if (std::isnan(Q))
      continue;
    QueueMs.push_back(Q);
    SealMs.push_back(timingField(Resp, "seal_ms"));
    Batch.push_back(timingField(Resp, "batch_size"));
  }

  // Part two: serial replay of the same lines through the layer
  // functions, alternating untraced and traced rounds, and each line
  // through handleOne on a service that flushes at once (a sequential
  // client has no stragglers to wait for; the seal wait is measured
  // above).
  core::LoadDiag Diag;
  std::unique_ptr<core::ModelBundle> HB =
      core::openMappedBundle(BundlePath, &Diag);
  if (!HB)
    die("cannot map " + BundlePath + ": " + Diag.Error);
  serve::ServeConfig Sequential;
  Sequential.FlushMicros = 0;
  serve::Service HandleSvc(std::move(HB), Sequential);

  SpanLedger L(true);
  const int Rounds = 5;
  std::vector<double> UntracedS, TracedS;
  Tally HT;
  for (int Round = 0; Round < Rounds; ++Round) {
    auto T0 = Clock::now();
    for (size_t I = 0; I < Req.Sources.size(); ++I)
      replayRequest(Bundle, Req.Sources[I], Off, -1);
    UntracedS.push_back(secondsBetween(T0, Clock::now()));
    T0 = Clock::now();
    for (size_t I = 0; I < Req.Sources.size(); ++I) {
      SpanScope S(L, "bench.request", static_cast<int64_t>(I));
      Replay R = replayRequest(Bundle, Req.Sources[I], L,
                               static_cast<int64_t>(I));
      if (R.Predictions != Expected[I].Predictions)
        Out.fail("replay is not deterministic on request " +
                 std::to_string(I));
    }
    TracedS.push_back(secondsBetween(T0, Clock::now()));
    for (size_t I = 0; I < Req.Lines.size(); ++I) {
      std::string Resp;
      {
        SpanScope S(L, "serve.handle", static_cast<int64_t>(I));
        Resp = HandleSvc.handleOne(Req.Lines[I]);
      }
      HT.add(checkResponse(Resp, Expected[I].Predictions));
    }
  }
  noteTally(Out, "sequential handle", HT);

  auto Tot = L.totals();
  const double Requests =
      static_cast<double>(Rounds) * static_cast<double>(Req.Lines.size());
  size_t Contexts = 0, Hits = 0, Factors = 0;
  for (const Replay &R : Expected) {
    Contexts += R.Contexts;
    Hits += R.BundleHits;
    Factors += R.Factors;
  }
  const double Pool = static_cast<double>(Req.Lines.size());
  double LayerS = 0;
  for (const char *Name : {"lang.parse", "paths.extract", "crf.build_graph",
                           "crf.predict", "crf.topk"})
    LayerS += Tot[Name].SelfSeconds;
  const double HandleS = Tot["serve.handle"].Seconds;
  auto PerReqUs = [&](const char *Name) {
    return Tot[Name].Seconds / Requests * 1e6;
  };

  ResultLine &M = Out.Result;
  M.add("lang.parse.us_per_kb",
        Tot["lang.parse"].Seconds /
            (static_cast<double>(Rounds) * static_cast<double>(Bytes) / 1024) *
            1e6,
        "us/KB");
  M.add("lang.js.parse_s", Tot["lang.parse"].Seconds / Rounds, "s");
  M.add("paths.extract.us_per_request", PerReqUs("paths.extract"), "us");
  M.add("paths.contexts", static_cast<double>(Contexts), "count");
  M.add("paths.contexts_per_request", static_cast<double>(Contexts) / Pool,
        "count");
  M.add("paths.bundle_hit_ratio",
        static_cast<double>(Hits) / static_cast<double>(Contexts), "ratio");
  M.add("core.bundle_open_ms", median(OpenMs), "ms");
  M.add("crf.build_graph.us_per_request", PerReqUs("crf.build_graph"), "us");
  M.add("crf.predict.us_per_request", PerReqUs("crf.predict"), "us");
  M.add("crf.topk.us_per_request", PerReqUs("crf.topk"), "us");
  M.add("crf.unknowns_per_request", static_cast<double>(Unknowns) / Pool,
        "count");
  M.add("crf.factors_per_request", static_cast<double>(Factors) / Pool,
        "count");
  M.add("serve.handle.us_per_request", HandleS / Requests * 1e6, "us");
  M.add("serve.overhead.us_per_request", (HandleS - LayerS) / Requests * 1e6,
        "us");
  M.add("serve.queue_wait_ms.p50", median(QueueMs), "ms");
  M.add("serve.queue_wait_ms.p99", tail(QueueMs).Value, "ms");
  M.add("serve.seal_wait_ms.p50", median(SealMs), "ms");
  M.add("serve.seal_wait_ms.p99", tail(SealMs).Value, "ms");
  M.add("serve.batch_size.mean", mean(Batch), "count");
  M.add("serve.overloaded", static_cast<double>(OT.Overloaded), "count");
  Out.addReconcile(LayerS / HandleS, ServeReconcileBand);
  M.add("bench.trace_overhead_share", traceOverhead(UntracedS, TracedS),
        "ratio");
  M.add("bench.generator_lag_ms.p99", tail(OL.LagMs).Value, "ms");
  if (!O.Spans.empty() && !L.writeJsonl(O.Spans.string()))
    std::cerr << "perfbench: warning: cannot write " << O.Spans << "\n";
}

//===----------------------------------------------------------------------===//
// train
//===----------------------------------------------------------------------===//

fs::path trainCorpusPath(const Options &O) { return O.Work / "train-java"; }

void prepTrain(const Options &O) {
  if (fs::exists(trainCorpusPath(O)))
    return;
  datagen::CorpusSpec Spec = datagen::defaultSpec(Language::Java, CorpusSeed);
  Spec.NumProjects = TrainProjects;
  writeCorpus(trainCorpusPath(O), datagen::generateCorpus(Spec),
              Language::Java);
}

struct TrainPass {
  double Seconds = 0;
  double Accuracy = 0;
  uint64_t Checksum = 0;
  size_t Failed = 0;
  size_t Contexts = 0;
  size_t TrainGraphs = 0;
  size_t Unknowns = 0;
  size_t Factors = 0;
  uint64_t Updates = 0;
  uint64_t Violations = 0;
  uint64_t Visits = 0; ///< Graph visits of the perceptron (epochs x graphs).
};

/// One `pigeon train` + `pigeon eval` pass over \p Src.
TrainPass trainPass(const std::vector<datagen::SourceFile> &Src,
                    const fs::path &BundlePath, SpanLedger &L) {
  auto &Reg = telemetry::MetricsRegistry::global();
  TrainPass Out;
  const auto T0 = Clock::now();
  {
    SpanScope Root(L, "bench.pass", 0);
    core::Corpus C;
    {
      SpanScope S(L, "core.parse_corpus", 0);
      C = core::parseCorpus(Src, Language::Java);
    }
    Out.Failed = C.ParseFailures;
    core::Split Split;
    {
      SpanScope S(L, "core.split", 0);
      Split = core::splitByProject(C, TestFraction, CorpusSeed);
    }
    core::ContextsArtifact Art;
    {
      SpanScope S(L, "core.build_artifact", 0);
      Art = core::buildContextsArtifact(C, core::Task::VariableNames,
                                        extractOptions(Language::Java));
    }
    for (const core::FileRecord &Rec : Art.Files)
      Out.Contexts += Rec.Contexts.size();

    core::ModelBundle Bundle = bundleFor(Art);
    crf::ElementSelector Selector = core::selectorFor(Bundle.TaskKind);
    std::vector<crf::CrfGraph> Graphs;
    {
      SpanScope S(L, "core.assemble", 0);
      for (size_t I : Split.Train)
        Graphs.push_back(core::buildGraphFromRecord(Art.Files[I], Selector));
    }
    Out.TrainGraphs = Graphs.size();
    size_t WithUnknowns = 0;
    for (const crf::CrfGraph &G : Graphs) {
      Out.Unknowns += G.Unknowns.size();
      Out.Factors += G.Factors.size();
      WithUnknowns += G.Unknowns.empty() ? 0 : 1;
    }
    const uint64_t U0 = Reg.counter("crf.updates").value();
    const uint64_t V0 = Reg.counter("crf.violations").value();
    {
      SpanScope S(L, "crf.train", 0);
      Bundle.Model.train(Graphs);
    }
    Out.Updates = Reg.counter("crf.updates").value() - U0;
    Out.Violations = Reg.counter("crf.violations").value() - V0;
    Out.Visits = WithUnknowns * static_cast<uint64_t>(crf::CrfConfig().Epochs);
    {
      SpanScope S(L, "core.bundle_save", 0);
      std::ofstream F(BundlePath, std::ios::binary | std::ios::trunc);
      core::saveModelV3(F, Bundle);
      F.flush();
      if (!F)
        die("cannot write " + BundlePath.string());
    }
    std::unique_ptr<core::ModelBundle> Mapped;
    {
      SpanScope S(L, "core.bundle_open", 0);
      core::LoadDiag Diag;
      Mapped = core::openMappedBundle(BundlePath.string(), &Diag);
      if (!Mapped)
        die("cannot map the trained bundle: " + Diag.Error);
    }
    if (!Mapped->Model.frozen())
      die("mapped model is not frozen");
    core::ContextsArtifact Test;
    Test.Lang = Bundle.Lang;
    Test.TaskKind = Bundle.TaskKind;
    Test.Extraction = Bundle.Extraction;
    for (size_t I : Split.Test)
      Test.Files.push_back(std::move(Art.Files[I]));
    core::EvalStats Stats;
    {
      SpanScope S(L, "core.eval", 0);
      Stats = core::evalArtifact(*Mapped, Test);
    }
    if (Stats.Total == 0)
      die("held-out split has nothing to predict");
    Out.Accuracy = Stats.accuracy();
  }
  Out.Seconds = secondsBetween(T0, Clock::now());
  auto Bytes = readFile(BundlePath);
  if (!Bytes)
    die("cannot read back " + BundlePath.string());
  Out.Checksum = fnv1a(*Bytes);
  return Out;
}

/// Held-out accuracy and bundle checksum must repeat exactly: across the
/// passes of a run, and across runs through a reference file the first
/// run of this build leaves in the work directory.
void checkTrainRepeat(const Options &O, const std::vector<TrainPass> &Passes,
                      Outcome &Out) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.17g %016llx\n", Passes[0].Accuracy,
                static_cast<unsigned long long>(Passes[0].Checksum));
  for (const TrainPass &P : Passes)
    if (P.Accuracy != Passes[0].Accuracy || P.Checksum != Passes[0].Checksum)
      Out.fail("accuracy or bundle checksum differs between passes");
  fs::path Ref = O.Work / "train-reference.txt";
  if (auto Prev = readFile(Ref)) {
    if (*Prev != Buf)
      Out.fail("accuracy/checksum " + std::string(Buf) +
               " differs from an earlier run: " + *Prev);
  } else {
    writeFileAtomic(Ref, Buf);
  }
  std::cerr << "train: accuracy and checksum " << Buf;
}

//===----------------------------------------------------------------------===//
// ingest
//===----------------------------------------------------------------------===//

fs::path ingestCorpusPath(const Options &O, Language Lang) {
  return O.RunDir / "ingest" / langToken(Lang);
}

/// The ingest corpora are fixed, so every seed ingests the same bytes;
/// the workload seed permutes the order the projects are read in (their
/// directory names), which reassigns every symbol and path id.
void prepIngest(const Options &O) {
  for (Language Lang : AllLangs) {
    datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, IngestCorpusSeed);
    Spec.NumProjects = IngestProjects;
    std::vector<datagen::SourceFile> Files = datagen::generateCorpus(Spec);
    std::map<std::string, std::string> Renamed;
    for (const datagen::SourceFile &F : Files)
      Renamed[F.Project];
    std::vector<std::string> Order;
    for (const auto &[Project, Name] : Renamed)
      Order.push_back(Project);
    Rng::forStream(O.Seed, std::string("perfbench-ingest-") + langToken(Lang))
        .shuffle(Order);
    for (size_t I = 0; I < Order.size(); ++I) {
      char Rank[16];
      std::snprintf(Rank, sizeof(Rank), "%04zu-", I);
      Renamed[Order[I]] = Rank + Order[I];
    }
    for (datagen::SourceFile &F : Files)
      F.Project = Renamed[F.Project];
    writeCorpus(ingestCorpusPath(O, Lang), Files, Lang);
  }
}

struct IngestJob {
  Language Lang;
  std::vector<datagen::SourceFile> Sources;
  fs::path OutPath;
  std::string Reference; ///< The artifact bytes of a one-thread ingest.
};

struct IngestPass {
  double Seconds = 0;
  size_t Failed = 0;
  size_t Contexts = 0;
  size_t Bytes = 0;
};

/// One `pigeon extract --out` per language at the default thread count.
IngestPass ingestPass(const std::vector<IngestJob> &Jobs, SpanLedger &L) {
  IngestPass Out;
  const auto T0 = Clock::now();
  {
    SpanScope Root(L, "bench.pass", -1);
    for (size_t J = 0; J < Jobs.size(); ++J) {
      const IngestJob &Job = Jobs[J];
      const int64_t Rid = static_cast<int64_t>(J);
      core::Corpus C;
      {
        SpanScope S(L, "core.parse_corpus", Rid);
        C = core::parseCorpus(Job.Sources, Job.Lang);
      }
      Out.Failed += C.ParseFailures;
      core::ContextsArtifact Art;
      {
        SpanScope S(L, "core.build_artifact", Rid);
        Art = core::buildContextsArtifact(C, core::Task::VariableNames,
                                          extractOptions(Job.Lang));
      }
      for (const core::FileRecord &Rec : Art.Files)
        Out.Contexts += Rec.Contexts.size();
      {
        SpanScope S(L, "core.save_contexts", Rid);
        std::ofstream F(Job.OutPath, std::ios::binary | std::ios::trunc);
        core::saveContexts(F, Art);
        F.flush();
        if (!F)
          die("cannot write " + Job.OutPath.string());
      }
    }
  }
  Out.Seconds = secondsBetween(T0, Clock::now());
  return Out;
}

/// \returns the number of jobs whose artifact matches the reference.
size_t checkIngest(const std::vector<IngestJob> &Jobs, IngestPass &P,
                   Outcome &Out) {
  size_t Same = 0;
  for (const IngestJob &Job : Jobs) {
    auto Bytes = readFile(Job.OutPath);
    if (!Bytes)
      die("cannot read back " + Job.OutPath.string());
    P.Bytes += Bytes->size();
    if (*Bytes == Job.Reference)
      ++Same;
    else
      Out.fail(std::string(langToken(Job.Lang)) +
               " artifact differs from the one-thread reference");
  }
  return Same;
}

//===----------------------------------------------------------------------===//
// Batch workloads (train, ingest): shared measuring loop
//===----------------------------------------------------------------------===//

/// End-to-end metrics of a batch workload from its pass times. A pass is
/// the workload's unit of work, so its latency is the pass time.
void addBatchMetrics(Outcome &Out, const std::vector<double> &SetupS,
                     const std::vector<double> &PassS, size_t FilesPerPass,
                     size_t FailedPerPass, double Accuracy) {
  std::vector<double> PassMs;
  double Total = 0;
  for (double S : PassS) {
    PassMs.push_back(S * 1e3);
    Total += S;
  }
  Tail T = tail(PassMs);
  std::cerr << PassS.size() << " passes, tail percentile " << T.Q * 100
            << ", ms:";
  for (double Ms : PassMs)
    std::cerr << " " << Ms;
  std::cerr << "\n";
  Out.Attempted += FilesPerPass * PassS.size();
  Out.Failed += FailedPerPass * PassS.size();
  Out.Result.add("setup_s", median(SetupS), "s");
  Out.Result.add("wall_s", median(PassS), "s");
  Out.Result.add("requests_per_s",
                 static_cast<double>(FilesPerPass * PassS.size()) / Total,
                 "1/s");
  Out.Result.add("latency_p50_ms", median(PassMs), "ms");
  Out.Result.add("latency_p99_ms", T.Value, "ms");
  Out.Result.add("accuracy", Accuracy, "ratio");
  Out.Result.add("peak_rss_mb", peakRssMb(), "MB");
  Out.Result.add("ok_share",
                 1.0 - static_cast<double>(FailedPerPass) /
                           static_cast<double>(FilesPerPass),
                 "ratio");
}

/// Runs one warm-up pass (page cache, allocator, lazy set-up; not
/// counted), then Pass() until Seconds have elapsed. Untraced: every pass
/// counts. Traced: passes alternate untraced and traced, starting
/// untraced, so the two can be compared for the tracing overhead.
template <typename PassFn>
void measurePasses(const Options &O, SpanLedger &L, PassFn Pass,
                   std::vector<double> &UntracedS,
                   std::vector<double> &TracedS) {
  SpanLedger Off(false);
  Pass(Off);
  const auto Begin = Clock::now();
  for (size_t N = 0;; ++N) {
    bool Traced = O.Trace && N % 2 == 1;
    (Traced ? TracedS : UntracedS).push_back(Pass(Traced ? L : Off));
    bool Done = secondsBetween(Begin, Clock::now()) >= O.Seconds;
    if (Done && (!O.Trace || !TracedS.empty()))
      break;
  }
}

/// Σ self time of the layer spans ÷ the pass spans' duration.
double reconcileBatch(std::map<std::string, SpanTotals> &Tot) {
  double LayerS = 0;
  for (const auto &[Name, T] : Tot)
    if (Name.rfind("bench.", 0) != 0)
      LayerS += T.SelfSeconds;
  return LayerS / Tot["bench.pass"].Seconds;
}

void runTrain(const Options &O, Outcome &Out) {
  std::vector<double> SetupS;
  std::vector<datagen::SourceFile> Src;
  for (size_t Rep = 0; Rep < SetupReps; ++Rep) {
    Src.clear();
    const auto T0 = Clock::now();
    Src = loadCorpus(trainCorpusPath(O), Language::Java);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }
  const double KB = static_cast<double>(sourceBytes(Src)) / 1024;
  std::cerr << "train: " << Src.size() << " Java files, " << KB << " KB\n";
  const fs::path BundlePath = O.RunDir / "train.v3";

  SpanLedger L(O.Trace);
  std::vector<TrainPass> Passes;
  std::vector<double> UntracedS, TracedS;
  measurePasses(
      O, L,
      [&](SpanLedger &Ledger) {
        Passes.push_back(trainPass(Src, BundlePath, Ledger));
        return Passes.back().Seconds;
      },
      UntracedS, TracedS);
  checkTrainRepeat(O, Passes, Out);
  const TrainPass &P = Passes.front();

  if (!O.Trace) {
    addBatchMetrics(Out, SetupS, UntracedS, Src.size(), P.Failed,
                    P.Accuracy);
    return;
  }
  Out.Attempted += Src.size() * Passes.size();
  Out.Failed += P.Failed * Passes.size();
  auto Tot = L.totals();
  const double N = static_cast<double>(TracedS.size());
  const double Files = static_cast<double>(Src.size());
  ResultLine &M = Out.Result;
  M.add("lang.parse.us_per_kb",
        Tot["core.parse_corpus"].Seconds / N / KB * 1e6,
        "us/KB");
  M.add("lang.java.parse_s", Tot["core.parse_corpus"].Seconds / N, "s");
  M.add("paths.extract.us_per_request",
        Tot["core.build_artifact"].Seconds / N / Files * 1e6, "us");
  M.add("paths.contexts", static_cast<double>(P.Contexts), "count");
  M.add("paths.contexts_per_request",
        static_cast<double>(P.Contexts) / Files, "count");
  M.add("core.parse_corpus_s", Tot["core.parse_corpus"].Seconds / N, "s");
  M.add("core.build_artifact_s", Tot["core.build_artifact"].Seconds / N, "s");
  M.add("core.assemble_s", Tot["core.assemble"].Seconds / N, "s");
  M.add("core.bundle_save_s", Tot["core.bundle_save"].Seconds / N, "s");
  M.add("core.eval_s", Tot["core.eval"].Seconds / N, "s");
  M.add("core.bundle_open_ms", Tot["core.bundle_open"].Seconds / N * 1e3,
        "ms");
  M.add("crf.train_s", Tot["crf.train"].Seconds / N, "s");
  M.add("crf.updates", static_cast<double>(P.Updates), "count");
  M.add("crf.violations", static_cast<double>(P.Violations), "count");
  M.add("crf.violation_ratio",
        static_cast<double>(P.Violations) / static_cast<double>(P.Visits),
        "ratio");
  M.add("crf.unknowns_per_request",
        static_cast<double>(P.Unknowns) / static_cast<double>(P.TrainGraphs),
        "count");
  M.add("crf.factors_per_request",
        static_cast<double>(P.Factors) / static_cast<double>(P.TrainGraphs),
        "count");
  Out.addReconcile(reconcileBatch(Tot), BatchReconcileBand);
  M.add("bench.trace_overhead_share", traceOverhead(UntracedS, TracedS),
        "ratio");
  if (!O.Spans.empty() && !L.writeJsonl(O.Spans.string()))
    std::cerr << "perfbench: warning: cannot write " << O.Spans << "\n";
}

void runIngest(const Options &O, Outcome &Out) {
  std::vector<double> SetupS;
  std::vector<IngestJob> Jobs;
  for (size_t Rep = 0; Rep < SetupReps; ++Rep) {
    Jobs.clear();
    const auto T0 = Clock::now();
    for (Language Lang : AllLangs)
      Jobs.push_back({Lang, loadCorpus(ingestCorpusPath(O, Lang), Lang),
                      O.RunDir / (std::string("ingest-") + langToken(Lang) +
                                  ".contexts"),
                      std::string()});
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }
  size_t Files = 0, Bytes = 0;
  for (IngestJob &Job : Jobs) {
    core::Corpus C = core::parseCorpus(Job.Sources, Job.Lang, 1);
    core::ContextsArtifact Art = core::buildContextsArtifact(
        C, core::Task::VariableNames, extractOptions(Job.Lang, 1));
    std::ostringstream OS;
    core::saveContexts(OS, Art);
    Job.Reference = OS.str();
    Files += Job.Sources.size();
    Bytes += sourceBytes(Job.Sources);
  }
  std::cerr << "ingest: " << Files << " files, " << Bytes / 1024
            << " KB over four languages\n";

  SpanLedger L(O.Trace);
  std::vector<IngestPass> Passes;
  std::vector<double> UntracedS, TracedS;
  size_t Same = 0;
  measurePasses(
      O, L,
      [&](SpanLedger &Ledger) {
        Passes.push_back(ingestPass(Jobs, Ledger));
        Same += checkIngest(Jobs, Passes.back(), Out);
        return Passes.back().Seconds;
      },
      UntracedS, TracedS);
  const IngestPass &P = Passes.front();
  const double Accuracy =
      static_cast<double>(Same) /
      static_cast<double>(Jobs.size() * Passes.size());

  if (!O.Trace) {
    addBatchMetrics(Out, SetupS, UntracedS, Files, P.Failed, Accuracy);
    return;
  }
  Out.Attempted += Files * Passes.size();
  Out.Failed += P.Failed * Passes.size();
  auto Tot = L.totals();
  const double N = static_cast<double>(TracedS.size());
  ResultLine &M = Out.Result;
  M.add("lang.parse.us_per_kb",
        Tot["core.parse_corpus"].Seconds / N /
            (static_cast<double>(Bytes) / 1024) * 1e6,
        "us/KB");
  for (size_t J = 0; J < Jobs.size(); ++J)
    M.add(std::string("lang.") + langToken(Jobs[J].Lang) + ".parse_s",
          L.totals(static_cast<int64_t>(J))["core.parse_corpus"].Seconds / N,
          "s");
  M.add("paths.extract.us_per_request",
        Tot["core.build_artifact"].Seconds / N / static_cast<double>(Files) *
            1e6,
        "us");
  M.add("paths.contexts", static_cast<double>(P.Contexts), "count");
  M.add("paths.contexts_per_request",
        static_cast<double>(P.Contexts) / static_cast<double>(Files),
        "count");
  M.add("core.parse_corpus_s", Tot["core.parse_corpus"].Seconds / N, "s");
  M.add("core.build_artifact_s", Tot["core.build_artifact"].Seconds / N, "s");
  M.add("core.save_contexts_s", Tot["core.save_contexts"].Seconds / N, "s");
  M.add("core.contexts_bytes", static_cast<double>(P.Bytes), "B");
  Out.addReconcile(reconcileBatch(Tot), BatchReconcileBand);
  M.add("bench.trace_overhead_share", traceOverhead(UntracedS, TracedS),
        "ratio");
  if (!O.Spans.empty() && !L.writeJsonl(O.Spans.string()))
    std::cerr << "perfbench: warning: cannot write " << O.Spans << "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::optional<Options> Parsed = parseOptions(argc, argv);
  if (!Parsed) {
    std::cerr << "usage: pigeon_perfbench prep|run --workload "
                 "serve|train|ingest --seed N --work DIR --run-dir DIR "
                 "[--seconds S --trace 0|1 --rate RPS --spans FILE]\n";
    return 2;
  }
  const Options &O = *Parsed;
  fs::create_directories(O.Work);
  fs::create_directories(O.RunDir);

  if (O.Mode == "prep") {
    if (O.Workload == "serve") {
      prepServeBundle(O);
      prepServeRequests(O);
    } else if (O.Workload == "train") {
      prepTrain(O);
    } else if (O.Workload == "ingest") {
      prepIngest(O);
    } else {
      die("unknown workload " + O.Workload);
    }
    return 0;
  }

  const double Cores = effectiveCores();
  std::cerr << "effective cores: " << Cores << " of "
            << parallel::availableConcurrency() << " available\n";
  Outcome Out;
  if (O.Workload == "serve")
    runServe(O, Out);
  else if (O.Workload == "train")
    runTrain(O, Out);
  else if (O.Workload == "ingest")
    runIngest(O, Out);
  else
    die("unknown workload " + O.Workload);
  if (O.Trace)
    Out.Result.add("bench.effective_cores", Cores, "cores");

  for (const std::string &Problem : Out.Problems)
    std::cerr << "perfbench: check failed: " << Problem << "\n";
  std::cerr << "metrics:\n";
  for (const auto &[Name, VU] : Out.Result.metrics())
    if (std::isfinite(VU.first))
      std::cerr << "  " << Name << " = " << VU.first << " " << VU.second
                << "\n";
  Out.Result.print(Out.Correct, Out.Attempted, Out.Failed);
  return 0;
}

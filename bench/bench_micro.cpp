//===- bench_micro.cpp - Microbenchmarks of the core primitives ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenches for the throughput-critical primitives:
/// parsing, path extraction (by length), CRF training and inference, and
/// SGNS training steps. These back the §5.3 discussion of training-cost
/// tradeoffs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/MappedBundle.h"
#include "core/ModelIO.h"
#include "lang/js/JsParser.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::bench;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

const std::vector<datagen::SourceFile> &sources() {
  static const std::vector<datagen::SourceFile> Files = [] {
    datagen::CorpusSpec Spec =
        datagen::defaultSpec(Language::JavaScript, BenchSeed);
    Spec.NumProjects = 8;
    return datagen::generateCorpus(Spec);
  }();
  return Files;
}

const Corpus &corpus() {
  static const Corpus C = parseCorpus(sources(), Language::JavaScript);
  return C;
}

void BM_ParseJs(benchmark::State &State) {
  const auto &Files = sources();
  size_t Bytes = 0;
  for (auto _ : State) {
    StringInterner SI;
    for (const datagen::SourceFile &File : Files) {
      lang::ParseResult R = js::parse(File.Text, SI);
      benchmark::DoNotOptimize(R.Tree);
      Bytes += File.Text.size();
    }
  }
  State.SetBytesProcessed(static_cast<int64_t>(Bytes));
}
BENCHMARK(BM_ParseJs);

void BM_ExtractPaths(benchmark::State &State) {
  const Corpus &C = corpus();
  paths::ExtractionConfig Config;
  Config.MaxLength = static_cast<int>(State.range(0));
  size_t Contexts = 0;
  for (auto _ : State) {
    paths::PathTable Table;
    for (const ParsedFile &File : C.Files)
      Contexts +=
          paths::extractPathContexts(File.Tree, Config, Table).size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Contexts));
}
BENCHMARK(BM_ExtractPaths)->Arg(4)->Arg(7)->Arg(10);

void BM_CrfTrainEpoch(benchmark::State &State) {
  const Corpus &C = corpus();
  paths::PathTable Table;
  paths::ExtractionConfig Config =
      tunedExtraction(Language::JavaScript, Task::VariableNames);
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  std::vector<crf::CrfGraph> Graphs;
  for (const ParsedFile &File : C.Files)
    Graphs.push_back(crf::buildGraph(
        File.Tree, paths::extractPathContexts(File.Tree, Config, Table),
        Selector));
  for (auto _ : State) {
    crf::CrfConfig CC;
    CC.Epochs = 1;
    crf::CrfModel Model(CC);
    Model.train(Graphs);
    benchmark::DoNotOptimize(Model.numFeatures());
  }
}
BENCHMARK(BM_CrfTrainEpoch);

void BM_CrfPredict(benchmark::State &State) {
  const Corpus &C = corpus();
  paths::PathTable Table;
  paths::ExtractionConfig Config =
      tunedExtraction(Language::JavaScript, Task::VariableNames);
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  std::vector<crf::CrfGraph> Graphs;
  for (const ParsedFile &File : C.Files)
    Graphs.push_back(crf::buildGraph(
        File.Tree, paths::extractPathContexts(File.Tree, Config, Table),
        Selector));
  crf::CrfModel Model;
  Model.train(Graphs);
  size_t Predictions = 0;
  for (auto _ : State) {
    for (const crf::CrfGraph &G : Graphs) {
      auto Pred = Model.predict(G);
      Predictions += G.Unknowns.size();
      benchmark::DoNotOptimize(Pred);
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Predictions));
}
BENCHMARK(BM_CrfPredict);

void BM_SgnsTrain(benchmark::State &State) {
  // Synthetic pair corpus: 64 words x 8 contexts each.
  std::vector<w2v::Pair> Pairs;
  pigeon::Rng R(BenchSeed);
  for (int I = 0; I < 20000; ++I) {
    uint32_t W = static_cast<uint32_t>(R.nextBelow(64));
    Pairs.push_back({W, 8 * W + static_cast<uint32_t>(R.nextBelow(8))});
  }
  for (auto _ : State) {
    w2v::SgnsConfig Config;
    Config.Epochs = 1;
    w2v::Sgns Model(Config);
    Model.train(Pairs, 64, 512);
    benchmark::DoNotOptimize(Model.numWords());
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(Pairs.size() * State.iterations()));
}
BENCHMARK(BM_SgnsTrain);

/// Repeated full-corpus parses into the global registry, so the `parse`
/// phase in the sidecar carries real percentiles. corpus() contributes a
/// single observation, which made p50/p90/p99 all equal that one run —
/// a distribution of one, useless for spotting tail regressions.
void recordParsePhase() {
  const auto &Files = sources();
  for (int Rep = 0; Rep < 8; ++Rep) {
    // parseCorpus opens its own "parse" phase; each run is one histogram
    // observation.
    Corpus C = parseCorpus(Files, Language::JavaScript);
    benchmark::DoNotOptimize(C.Files.size());
  }
}

/// Measured extraction pass for the trajectory gate: contexts/sec through
/// the packed hot path and the packed-bytes cost per context. Gauges whose
/// names contain `per_sec` are throughput-gated by tools/bench_report, so
/// a regression in the string-free extraction path fails CI.
void recordExtractionThroughput() {
  const Corpus &C = corpus();
  paths::ExtractionConfig Config =
      tunedExtraction(Language::JavaScript, Task::VariableNames);
  // Warm-up pass, then take the best of a few timed repetitions so the
  // gauge is not at the mercy of one scheduler hiccup.
  double BestSeconds = 1e30;
  size_t Contexts = 0;
  uint64_t PackedBytes = 0;
  for (int Rep = 0; Rep < 4; ++Rep) {
    paths::PathTable Table;
    size_t RepContexts = 0;
    uint64_t RepBytes = 0;
    auto Start = std::chrono::steady_clock::now();
    for (const ParsedFile &File : C.Files) {
      auto Cs = paths::extractPathContexts(File.Tree, Config, Table);
      RepContexts += Cs.size();
      for (const paths::PathContext &Ctx : Cs)
        RepBytes += Table.bytes(Ctx.Path).size();
    }
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    if (Rep == 0)
      continue; // Warm-up: caches and allocator state settle.
    BestSeconds = std::min(BestSeconds, Seconds);
    Contexts = RepContexts;
    PackedBytes = RepBytes;
  }
  auto &Reg = telemetry::MetricsRegistry::global();
  if (BestSeconds > 0.0 && Contexts > 0) {
    Reg.gauge("paths.extract.contexts_per_sec")
        .set(static_cast<double>(Contexts) / BestSeconds);
    Reg.gauge("paths.extract.packed_bytes_per_context")
        .set(static_cast<double>(PackedBytes) /
             static_cast<double>(Contexts));
  }
}

/// Measured CRF kernel passes for the trajectory gate: perceptron
/// training in graph visits per second (graphs with unknowns × epochs)
/// and MAP inference in unknowns per second. Same discipline as
/// recordExtractionThroughput: one warm-up run, then the best of a few
/// timed runs; both gauges are `per_sec`, so bench_report gates them.
void recordCrfThroughput() {
  const Corpus &C = corpus();
  paths::PathTable Table;
  paths::ExtractionConfig Config =
      tunedExtraction(Language::JavaScript, Task::VariableNames);
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  std::vector<crf::CrfGraph> Graphs;
  size_t Visits = 0, Unknowns = 0;
  for (const ParsedFile &File : C.Files) {
    Graphs.push_back(crf::buildGraph(
        File.Tree, paths::extractPathContexts(File.Tree, Config, Table),
        Selector));
    Visits += Graphs.back().Unknowns.empty() ? 0 : 1;
    Unknowns += Graphs.back().Unknowns.size();
  }
  crf::CrfConfig CC;
  Visits *= static_cast<size_t>(CC.Epochs);

  auto BestOf = [](auto &&Run) {
    double Best = 1e30;
    for (int Rep = 0; Rep < 8; ++Rep) {
      auto Start = std::chrono::steady_clock::now();
      Run();
      double Seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      if (Rep > 0) // Rep 0 warms caches and allocator state.
        Best = std::min(Best, Seconds);
    }
    return Best;
  };
  crf::CrfModel Model(CC);
  double TrainSeconds = BestOf([&] {
    Model = crf::CrfModel(CC);
    Model.train(Graphs);
    benchmark::DoNotOptimize(Model.numFeatures());
  });
  double PredictSeconds = BestOf([&] {
    for (const crf::CrfGraph &G : Graphs) {
      auto Pred = Model.predict(G);
      benchmark::DoNotOptimize(Pred);
    }
  });
  auto &Reg = telemetry::MetricsRegistry::global();
  if (TrainSeconds > 0.0 && Visits > 0)
    Reg.gauge("crf.train.graph_visits_per_sec")
        .set(static_cast<double>(Visits) / TrainSeconds);
  if (PredictSeconds > 0.0 && Unknowns > 0)
    Reg.gauge("crf.predict.unknowns_per_sec")
        .set(static_cast<double>(Unknowns) / PredictSeconds);
}

/// Model-load cost, v2 stream vs v3 mmap, for the trajectory gate. Both
/// formats of the same trained bundle are written to temp files, loaded
/// repeatedly (best-of, after a warm-up), and the wall times plus the
/// per-format RSS deltas land as gauges. `model.load.speedup` folds into
/// the pigeon.bench.v1 trajectory as a throughput metric, so a >threshold
/// drop against the committed baseline fails bench_report; the optional
/// PIGEON_BENCH_MIN_LOAD_SPEEDUP env floor fails this binary directly.
int recordModelLoadCost() {
  core::ModelBundle Bundle;
  Bundle.Lang = Language::JavaScript;
  Bundle.Interner = std::make_unique<StringInterner>();
  Bundle.TaskKind = core::Task::VariableNames;
  Bundle.Extraction =
      core::tunedExtraction(Language::JavaScript, core::Task::VariableNames);
  {
    // Re-parse with the bundle's own interner so saved ids are dense.
    crf::ElementSelector Selector =
        core::selectorFor(core::Task::VariableNames);
    std::vector<crf::CrfGraph> Graphs;
    for (const datagen::SourceFile &File : sources()) {
      lang::ParseResult R = js::parse(File.Text, *Bundle.Interner);
      auto Contexts = paths::extractPathContexts(*R.Tree, Bundle.Extraction,
                                                 Bundle.Table);
      Graphs.push_back(crf::buildGraph(*R.Tree, Contexts, Selector));
    }
    Bundle.Model.train(Graphs);
  }

  char V2Path[] = "/tmp/pigeon_bench_v2_XXXXXX";
  char V3Path[] = "/tmp/pigeon_bench_v3_XXXXXX";
  int Fd2 = ::mkstemp(V2Path), Fd3 = ::mkstemp(V3Path);
  if (Fd2 < 0 || Fd3 < 0)
    return 1;
  ::close(Fd2);
  ::close(Fd3);
  {
    std::ofstream O2(V2Path, std::ios::binary);
    core::saveModel(O2, Bundle);
    std::ofstream O3(V3Path, std::ios::binary);
    core::saveModelV3(O3, Bundle);
  }

  auto BestLoadSeconds = [](const std::string &Path) {
    double Best = 1e30;
    for (int Rep = 0; Rep < 12; ++Rep) {
      auto Start = std::chrono::steady_clock::now();
      auto B = core::loadModelFile(Path);
      double Seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      if (!B)
        return -1.0;
      benchmark::DoNotOptimize(B->Model.numFeatures());
      if (Rep > 0) // First load warms the page cache / allocator.
        Best = std::min(Best, Seconds);
    }
    return Best;
  };

  // RSS deltas around a single held-open load of each format. The
  // allocator is trimmed first so pages freed by earlier phases (training
  // ran in this process) are returned to the kernel — otherwise the v2
  // deserialization is served from recycled heap and its delta reads 0.
  auto RssDeltaOf = [](const std::string &Path, uint64_t &Delta) {
#if defined(__GLIBC__)
    ::malloc_trim(0);
#endif
    uint64_t Before = telemetry::currentRssKb();
    auto B = core::loadModelFile(Path);
    uint64_t After = telemetry::currentRssKb();
    Delta = After > Before ? After - Before : 0;
    return B != nullptr;
  };
  uint64_t RssDelta3, RssDelta2;
  if (!RssDeltaOf(V3Path, RssDelta3) || !RssDeltaOf(V2Path, RssDelta2))
    return 1;

  double V2Seconds = BestLoadSeconds(V2Path);
  double V3Seconds = BestLoadSeconds(V3Path);
  ::unlink(V2Path);
  ::unlink(V3Path);
  if (V2Seconds <= 0 || V3Seconds <= 0) {
    std::fprintf(stderr, "error: model load bench failed to load bundles\n");
    return 1;
  }
  double Speedup = V2Seconds / V3Seconds;

  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.gauge("model.load.v2_stream.seconds").set(V2Seconds);
  Reg.gauge("model.load.v3_mmap.seconds").set(V3Seconds);
  Reg.gauge("model.load.speedup").set(Speedup);
  Reg.gauge("model.load.v2_stream.rss_delta.kb")
      .set(static_cast<double>(RssDelta2));
  Reg.gauge("model.load.v3_mmap.rss_delta.kb")
      .set(static_cast<double>(RssDelta3));
  std::fprintf(stderr,
               "model load: v2 stream %.3f ms, v3 mmap %.3f ms (%.1fx), "
               "rss delta v2 %llu KiB vs v3 %llu KiB\n",
               V2Seconds * 1e3, V3Seconds * 1e3, Speedup,
               static_cast<unsigned long long>(RssDelta2),
               static_cast<unsigned long long>(RssDelta3));

  if (const char *Env = std::getenv("PIGEON_BENCH_MIN_LOAD_SPEEDUP")) {
    double Floor = std::atof(Env);
    if (Floor > 0 && Speedup < Floor) {
      std::fprintf(stderr,
                   "error: v3 mmap load speedup %.2fx below the %.2fx "
                   "floor\n",
                   Speedup, Floor);
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  recordParsePhase();
  recordExtractionThroughput();
  recordCrfThroughput();
  int RC = recordModelLoadCost();
  pigeon::bench::writeBenchSidecar("bench_micro");
  return RC;
}

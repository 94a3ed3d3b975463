//===- pigeon.cpp - The PIGEON command-line tool -----------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The cross-language tool the paper names PIGEON (§5.1), as a CLI:
///
///   pigeon extract --lang js [--length N --width N --abst A] FILE
///       Print the abstract path-contexts of one source file.
///
///   pigeon extract --lang js --task vars --out CTX PATH...
///       Parse every source file under the given paths and write the
///       extracted contexts as a pigeon.contexts.v1 artifact — the
///       parse+extract front half of training, persisted.
///
///   pigeon train --lang js --task vars|methods --out MODEL PATH...
///       Parse every source file under the given paths, train the CRF
///       name model, and save a self-contained model bundle.
///
///   pigeon train --from-contexts CTX --out MODEL
///       Train from a saved contexts artifact instead of sources; the
///       resulting bundle is byte-identical to direct training on the
///       same corpus.
///
///   pigeon eval --model MODEL (--from-contexts CTX | [--lang js] PATH...)
///       Measure a trained bundle's accuracy on a labelled corpus, given
///       either sources or a contexts artifact. The language defaults to
///       the bundle's; a --lang or an artifact of another language or
///       task is refused.
///
///   pigeon predict --model MODEL FILE
///       Predict names for a (possibly minified) file with a trained
///       bundle; prints top-3 candidates per element, and every parse
///       diagnostic to stderr.
///
///   pigeon demo --lang js
///       Self-contained showcase: synthesize a corpus, train, strip a
///       held-out file and recover its names.
///
///   pigeon synth --lang js --out DIR [--projects N] [--seed S]
///       Write a synthetic corpus to disk (one file per function), ready
///       for `pigeon train`.
///
///   pigeon explain --lang js [--task vars|methods|types] [--top K]
///       Train on a synthetic corpus and decompose held-out predictions
///       into their top-K contributing AST paths (factor weight + vote
///       per path). With --trace, the same attributions are written as
///       `prediction` / `attribution` records into the event stream.
///
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"
#include "core/Experiments.h"
#include "core/MappedBundle.h"
#include "core/ModelIO.h"
#include "core/Predict.h"
#include "serve/Serve.h"
#include "support/EventLog.h"
#include "support/Parallel.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  pigeon extract --lang <js|java|py|cs> [--length N] [--width N]"
         " [--abst NAME] FILE\n"
         "  pigeon extract --lang <js|java|py|cs> --task <vars|methods>"
         " --out CTX PATH...\n"
         "  pigeon train   --lang <js|java|py|cs> --task <vars|methods>"
         " --out MODEL PATH...\n"
         "  pigeon train   --from-contexts CTX --out MODEL\n"
         "  pigeon eval    --model MODEL"
         " (--from-contexts CTX | [--lang <js|java|py|cs>] PATH...)\n"
         "  pigeon predict --model MODEL FILE\n"
         "  pigeon serve   --model MODEL"
         " (--socket PATH | --tcp HOST:PORT | --stdio)\n"
         "                 [--serve-workers N]\n"
         "                 [--batch N] [--queue N] [--slo-p99-ms MS]\n"
         "                 [--prom FILE] [--metrics-interval SECONDS]\n"
         "                 [--slow-log FILE] [--slow-trace-ms MS]\n"
         "                 [--flightrec FILE]\n"
         "  pigeon demo    --lang <js|java|py|cs>\n"
         "  pigeon synth   --lang <js|java|py|cs> --out DIR"
         " [--projects N] [--seed S]\n"
         "  pigeon explain --lang <js|java|py|cs>"
         " [--task <vars|methods|types>]\n"
         "                 [--top K] [--projects N] [--seed S]\n"
         "\n"
         "Every subcommand accepts --metrics FILE to write a JSON metrics\n"
         "snapshot (schema pigeon.metrics.v1) at exit; the PIGEON_METRICS\n"
         "environment variable is the fallback when the flag is absent.\n"
         "\n"
         "Every subcommand accepts --trace FILE to stream structured JSONL\n"
         "events (schema pigeon.events.v2): phase and per-chunk spans with\n"
         "wall/CPU/RSS, plus prediction-provenance records. PIGEON_TRACE\n"
         "is the fallback, and --trace-max-mb MB rotates the stream into\n"
         "byte-capped segments (the previous segment is kept at FILE.1).\n"
         "Both outputs are flushed best-effort even when the tool dies on\n"
         "an error or unhandled exception.\n"
         "\n"
         "Every subcommand accepts --threads N to size the worker pool for\n"
         "the sharded parse/extract/inference stages (0 = one per core);\n"
         "the PIGEON_THREADS environment variable is the fallback. Results\n"
         "are identical at any thread count.\n"
         "\n"
         "Every subcommand accepts --profile FILE to write the phase tree at\n"
         "exit as flamegraph.pl folded stacks: one `a;b;c <self us>` line\n"
         "per phase (admin:\"profile\" returns the same lines live). `pigeon\n"
         "serve` additionally accepts --prom FILE (Prometheus text exposition,\n"
         "rewritten every --metrics-interval seconds, default 10, alongside\n"
         "--metrics/--trace), --slo-p99-ms MS (the admin:\"slo\" target\n"
         "for the windowed serve.request.seconds p99), --slow-log FILE\n"
         "(tail sampling: the serve.request event records of requests\n"
         "slower than --slow-trace-ms — falling back to the SLO target —\n"
         "are kept there as JSONL, the same lines --trace writes; 0\n"
         "captures everything),\n"
         "and --flightrec FILE (the in-memory flight recorder of recent\n"
         "event records, also dumped by admin:\"flightrec\", is written\n"
         "there at exit and on every metrics tick).\n";
  return 2;
}

const char *extensionFor(Language Lang) {
  switch (Lang) {
  case Language::JavaScript:
    return ".js";
  case Language::Java:
    return ".java";
  case Language::Python:
    return ".py";
  case Language::CSharp:
    return ".cs";
  }
  return "";
}

std::optional<paths::Abstraction> parseAbstraction(const std::string &Name) {
  for (paths::Abstraction A : paths::AllAbstractions)
    if (Name == paths::abstractionName(A))
      return A;
  return std::nullopt;
}

/// "error: cannot <verb> <path>: <strerror>" — every file the CLI fails
/// to open reports the OS reason. A missing model path must read as an IO
/// error here, not surface three layers later as a bundle decode error.
std::string openError(const char *Verb, const std::string &Path) {
  return std::string("error: cannot ") + Verb + " " + Path + ": " +
         std::strerror(errno);
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt; // errno still describes the failed open.
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad())
    return std::nullopt;
  return Buffer.str();
}

/// Prints every diagnostic of \p R to stderr as "PATH:LINE:COL: message".
/// \returns false, after saying so, when the frontend built no tree.
bool reportParse(const std::string &Path, const lang::ParseResult &R) {
  for (const lang::Diagnostic &D : R.Diags)
    std::cerr << Path << ":" << D.str() << "\n";
  if (R.Tree)
    return true;
  std::cerr << "error: parse failed\n";
  return false;
}

/// Collects source files (by extension) under the given paths.
std::vector<std::string> collectSources(const std::vector<std::string> &Roots,
                                        Language Lang) {
  namespace fs = std::filesystem;
  std::vector<std::string> Out;
  const std::string Ext = extensionFor(Lang);
  for (const std::string &Root : Roots) {
    std::error_code EC;
    if (fs::is_directory(Root, EC)) {
      for (const auto &Entry :
           fs::recursive_directory_iterator(Root, EC)) {
        if (Entry.is_regular_file() && Entry.path().extension() == Ext)
          Out.push_back(Entry.path().string());
      }
    } else {
      Out.push_back(Root);
    }
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// extract
//===----------------------------------------------------------------------===//

int cmdExtract(Language Lang, const paths::ExtractionConfig &Config,
               const std::string &Path) {
  auto Text = readFile(Path);
  if (!Text) {
    std::cerr << openError("read", Path) << "\n";
    return 1;
  }
  StringInterner Interner;
  std::optional<lang::ParseResult> R;
  {
    telemetry::TraceScope Phase("parse");
    R = parseSource(Lang, *Text, Interner);
  }
  if (!reportParse(Path, *R))
    return 1;

  paths::PathTable Table;
  std::vector<paths::PathContext> Contexts;
  {
    telemetry::TraceScope Phase("extract");
    Contexts = paths::extractPathContexts(*R->Tree, Config, Table);
  }
  for (const paths::PathContext &Ctx : Contexts) {
    std::cout << Interner.str(paths::endValue(*R->Tree, Ctx.Start)) << "\t"
              << Table.render(Ctx.Path, Interner) << "\t"
              << Interner.str(paths::endValue(*R->Tree, Ctx.End))
              << (Ctx.Semi ? "\t(semi)" : "") << "\n";
  }
  std::cerr << Contexts.size() << " path-contexts, " << Table.size()
            << " distinct paths\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Corpus artifact pipeline (extract --out / train / eval)
//===----------------------------------------------------------------------===//

/// Reads the source files under \p Roots into parseCorpus() inputs. The
/// project of a file is its parent directory, so corpora laid out one
/// directory per project keep their split structure.
std::vector<datagen::SourceFile>
loadSourceFiles(const std::vector<std::string> &Roots, Language Lang) {
  std::vector<datagen::SourceFile> Out;
  for (const std::string &Path : collectSources(Roots, Lang)) {
    auto Text = readFile(Path);
    if (!Text) {
      std::cerr << "warning: cannot read " << Path << ": "
                << std::strerror(errno) << ", skipped\n";
      continue;
    }
    datagen::SourceFile File;
    File.Project = std::filesystem::path(Path).parent_path().string();
    File.FileName = Path;
    File.Text = std::move(*Text);
    Out.push_back(std::move(File));
  }
  return Out;
}

/// The parse+extract front half shared by `extract --out`, direct
/// `train`, and direct `eval`: parse the sources into a corpus (sharded,
/// bit-identical at any thread count) and resolve the extracted contexts
/// into an artifact. \returns std::nullopt (with a message) when no
/// source parses.
std::optional<ContextsArtifact>
buildArtifactFromRoots(Language Lang, Task TaskKind,
                       const paths::ExtractionConfig &Extraction,
                       const std::vector<std::string> &Roots) {
  std::vector<datagen::SourceFile> Sources = loadSourceFiles(Roots, Lang);
  if (Sources.empty()) {
    std::cerr << "error: no " << extensionFor(Lang)
              << " files under the given paths\n";
    return std::nullopt;
  }
  Corpus C = parseCorpus(Sources, Lang); // Opens its own "parse" phase.
  std::cerr << "parsed " << C.Files.size() << "/" << Sources.size()
            << " files (" << C.ParseFailures << " dropped)\n";
  if (C.Files.empty()) {
    std::cerr << "error: every file failed to parse\n";
    return std::nullopt;
  }
  CrfExperimentOptions Options;
  Options.Extraction = Extraction;
  return buildContextsArtifact(C, TaskKind, Options);
}

int cmdExtractCorpus(Language Lang, Task TaskKind,
                     const paths::ExtractionConfig &Extraction,
                     const std::string &OutPath,
                     const std::vector<std::string> &Roots) {
  auto Art = buildArtifactFromRoots(Lang, TaskKind, Extraction, Roots);
  if (!Art)
    return 1;
  size_t NumContexts = 0;
  for (const FileRecord &Rec : Art->Files)
    NumContexts += Rec.Contexts.size();
  std::ofstream Out(OutPath, std::ios::binary);
  if (!Out) {
    std::cerr << openError("write", OutPath) << "\n";
    return 1;
  }
  telemetry::TraceScope Phase("save");
  saveContexts(Out, *Art);
  Out.flush();
  if (!Out) {
    std::cerr << openError("write", OutPath) << "\n";
    return 1;
  }
  std::cerr << "wrote " << NumContexts << " contexts over "
            << Art->Files.size() << " files, " << Art->Table.size()
            << " distinct paths to " << OutPath << "\n";
  return 0;
}

std::unique_ptr<ContextsArtifact>
loadContextsFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::cerr << openError("read", Path) << "\n";
    return nullptr;
  }
  telemetry::TraceScope Phase("load");
  auto Art = loadContexts(In);
  if (!Art)
    std::cerr << "error: " << Path
              << " is not a pigeon.contexts.v1 artifact\n";
  return Art;
}

//===----------------------------------------------------------------------===//
// model loading (shared by eval / predict / serve)
//===----------------------------------------------------------------------===//

/// Maps the bundle at \p ModelPath in place, printing the loader's
/// diagnostic (with its byte offset) on failure.
std::unique_ptr<ModelBundle> loadBundleFile(const std::string &ModelPath,
                                            bool VerifyChecksum = false) {
  LoadDiag Diag;
  auto Bundle = openMappedBundle(ModelPath, &Diag, VerifyChecksum);
  if (!Bundle)
    std::cerr << "error: " << ModelPath << ": "
              << (Diag.Error.empty() ? "not a PIGEON model" : Diag.Error)
              << "\n";
  return Bundle;
}

//===----------------------------------------------------------------------===//
// train
//===----------------------------------------------------------------------===//

/// Trains and saves a bundle from an artifact (loaded or just built).
/// Both `train` routes converge here, on core::trainBundle.
int trainFromArtifact(ContextsArtifact &&Art, const std::string &OutPath) {
  ModelBundle Bundle = trainBundle(std::move(Art));
  std::cerr << "trained: " << Bundle.Model.numFeatures() << " features, "
            << Bundle.Table.size() << " distinct paths\n";

  std::ofstream Out(OutPath, std::ios::binary);
  if (!Out) {
    std::cerr << openError("write", OutPath) << "\n";
    return 1;
  }
  telemetry::TraceScope Phase("save");
  saveModelV3(Out, Bundle);
  Out.flush();
  if (!Out) {
    std::cerr << openError("write", OutPath) << "\n";
    return 1;
  }
  std::cerr << "saved model to " << OutPath << "\n";
  return 0;
}

int cmdTrain(Language Lang, Task TaskKind, const std::string &OutPath,
             const std::vector<std::string> &Roots) {
  auto Art =
      buildArtifactFromRoots(Lang, TaskKind, tunedExtraction(Lang, TaskKind),
                             Roots);
  if (!Art)
    return 1;
  return trainFromArtifact(std::move(*Art), OutPath);
}

int cmdTrainFromContexts(const std::string &ContextsPath,
                         const std::string &OutPath) {
  auto Art = loadContextsFile(ContextsPath);
  if (!Art)
    return 1;
  if (Art->TaskKind == Task::FullTypes) {
    std::cerr << "error: contexts artifact is for the types task, which "
                 "trains through `pigeon explain`/experiments only\n";
    return 1;
  }
  return trainFromArtifact(std::move(*Art), OutPath);
}

//===----------------------------------------------------------------------===//
// eval
//===----------------------------------------------------------------------===//

/// The refusal of an eval input whose language or task is not the
/// model's; both eval routes print it.
int refuseMismatch(const char *Input) {
  std::cerr << "error: " << Input
            << " language/task does not match the model\n";
  return 1;
}

int cmdEval(const std::string &ModelPath, const std::string &ContextsPath,
            const std::optional<Language> &Lang,
            const std::vector<std::string> &Roots) {
  std::unique_ptr<ModelBundle> Bundle;
  {
    // A batch job can afford the trailer checksum (a read of every
    // page): the one CLI path that catches damage the structural checks
    // cannot see.
    telemetry::TraceScope Phase("load");
    Bundle = loadBundleFile(ModelPath, /*VerifyChecksum=*/true);
  }
  if (!Bundle)
    return 1;

  std::unique_ptr<ContextsArtifact> Art;
  if (!ContextsPath.empty()) {
    Art = loadContextsFile(ContextsPath);
    if (!Art)
      return 1;
    if (Art->Lang != Bundle->Lang || Art->TaskKind != Bundle->TaskKind)
      return refuseMismatch("contexts artifact");
  } else {
    // Direct route: parse as the model's language and extract with its
    // own configuration, so the contexts match what it was trained on.
    if (Lang && *Lang != Bundle->Lang)
      return refuseMismatch("source");
    auto Built = buildArtifactFromRoots(Bundle->Lang, Bundle->TaskKind,
                                        Bundle->Extraction, Roots);
    if (!Built)
      return 1;
    Art = std::make_unique<ContextsArtifact>(std::move(*Built));
  }

  // The artifact speaks its own symbol space; rebase it onto the
  // bundle's interner and path table before scoring.
  if (!rebaseArtifact(*Art, *Bundle->Interner, Bundle->Table)) {
    std::cerr << "error: corrupt contexts artifact (out-of-range symbols "
                 "or paths)\n";
    return 1;
  }

  EvalStats Stats = evalArtifact(*Bundle, *Art);
  if (Stats.Total == 0) {
    // A 0-of-0 run is not a score. Presenting it as accuracy 0.0 with
    // exit 0 poisoned the bench trajectory once; now it is an explicit
    // failure that never sets the accuracy gauge.
    std::printf("accuracy n/a (n=0)\n");
    std::cerr << "error: no elements to evaluate — the corpus has no "
              << taskName(Art->TaskKind)
              << " targets (empty artifact or all-known files)\n";
    return 1;
  }
  double Accuracy = Stats.accuracy();
  telemetry::MetricsRegistry::global()
      .gauge("eval.cli.accuracy")
      .set(Accuracy);
  std::printf("accuracy %.6f (%zu/%zu predictions)\n", Accuracy,
              Stats.Correct, Stats.Total);
  return 0;
}

//===----------------------------------------------------------------------===//
// predict
//===----------------------------------------------------------------------===//

int cmdPredict(const std::string &ModelPath, const std::string &Path) {
  std::unique_ptr<ModelBundle> Bundle;
  {
    telemetry::TraceScope Phase("load");
    Bundle = loadBundleFile(ModelPath);
  }
  if (!Bundle)
    return 1;
  auto Text = readFile(Path);
  if (!Text) {
    std::cerr << openError("read", Path) << "\n";
    return 1;
  }
  Prediction P;
  {
    telemetry::TraceScope Phase("parse");
    P = parsePrediction(*Bundle, *Text);
  }
  if (!reportParse(Path, P.Parse))
    return 1;
  {
    telemetry::TraceScope Phase("predict");
    completePrediction(*Bundle, P, /*K=*/3);
  }

  TablePrinter Out("predictions for " + Path);
  Out.setHeader({"Element", "Kind", "Prediction", "Top candidates"});
  for (const ElementPrediction &E : P.Elements) {
    std::string Candidates;
    for (const auto &[Label, Score] : E.Candidates) {
      if (!Candidates.empty())
        Candidates += ", ";
      Candidates += P.str(Label);
    }
    Out.addRow({std::string(P.str(E.Name)), E.Kind,
                std::string(E.Label.isValid() ? P.str(E.Label)
                                              : std::string_view("?")),
                Candidates});
  }
  Out.print(std::cout);
  return 0;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// The --metrics/--prom/--profile destinations, stashed as globals so
/// both the fatal-path flush and the serve-time periodic flusher reach
/// them. Declared here because cmdServe's flusher thread uses them.
std::string DiagMetricsPath;
std::string DiagPromPath;
std::string DiagProfilePath;
std::string DiagFlightRecPath;

/// Set by SIGTERM/SIGINT; the serve loops poll it every 200 ms and wind
/// down cleanly — drain in-flight requests, flush telemetry — instead of
/// dying mid-batch.
std::atomic<bool> ServeStop{false};

void onServeSignal(int) { ServeStop.store(true, std::memory_order_relaxed); }

int cmdServe(const std::string &ModelPath, const std::string &SocketPath,
             const std::string &TcpHostPort, bool Stdio,
             serve::ServeConfig Config, double FlushInterval) {
  std::unique_ptr<ModelBundle> Bundle;
  uint64_t RssBeforeKb = telemetry::currentRssKb();
  double LoadSeconds = 0;
  {
    telemetry::TraceScope Phase("load");
    Bundle = loadBundleFile(ModelPath);
    LoadSeconds = Phase.seconds();
  }
  if (!Bundle)
    return 1;
  // Load cost and residency: the bundle is served from the mapping (its
  // pages are file-backed and shared across processes), so the heap RSS
  // delta stays near zero.
  uint64_t RssAfterKb = telemetry::currentRssKb();
  uint64_t MappedKb = Bundle->Mapping->size() / 1024;
  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.gauge("model.load.seconds").set(LoadSeconds);
  Reg.gauge("model.load.rss_delta.kb")
      .set(RssAfterKb > RssBeforeKb
               ? static_cast<double>(RssAfterKb - RssBeforeKb)
               : 0.0);
  Reg.gauge("model.load.mapped.kb").set(static_cast<double>(MappedKb));

  std::signal(SIGTERM, onServeSignal);
  std::signal(SIGINT, onServeSignal);
  // A client hanging up mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  serve::Service Service(std::move(Bundle), Config);
  std::cerr << "pigeon serve: " << ModelPath << " ("
            << lang::languageName(Service.bundle().Lang) << ", "
            << taskName(Service.bundle().TaskKind) << ", "
            << Service.bundle().Model.numFeatures() << " features), "
            << "mmap-resident " << MappedKb << " KiB, " << Service.workers()
            << " worker"
            << (Service.workers() == 1 ? "" : "s") << ", "
            << (Stdio ? "stdio"
                      : !TcpHostPort.empty() ? "tcp " + TcpHostPort
                                             : "socket " + SocketPath)
            << "\n";

  // Periodic telemetry flush: a resident process must not hold its
  // observability hostage to a clean exit. Each tick atomically rewrites
  // the --metrics and --prom files and syncs the --trace stream.
  std::mutex FlushMutex;
  std::condition_variable FlushCV;
  bool FlushStop = false;
  std::thread Flusher;
  bool WantFlusher = FlushInterval > 0 &&
                     (!DiagMetricsPath.empty() || !DiagPromPath.empty() ||
                      !DiagFlightRecPath.empty() ||
                      telemetry::EventLog::global().enabled());
  if (WantFlusher)
    Flusher = std::thread([&] {
      std::unique_lock<std::mutex> L(FlushMutex);
      auto Tick = std::chrono::duration<double>(FlushInterval);
      while (!FlushCV.wait_for(L, Tick, [&] { return FlushStop; })) {
        auto &Reg = telemetry::MetricsRegistry::global();
        if (!DiagMetricsPath.empty())
          telemetry::writeFileAtomic(DiagMetricsPath, Reg.jsonSnapshot());
        if (!DiagPromPath.empty())
          telemetry::writeFileAtomic(DiagPromPath,
                                     Reg.prometheusSnapshot());
        telemetry::EventLog::global().flush();
        if (!DiagFlightRecPath.empty())
          telemetry::EventLog::global().dumpRing(DiagFlightRecPath);
      }
    });

  int RC;
  {
    telemetry::TraceScope Phase("serve");
    RC = Stdio ? serve::serveFdLoop(Service, /*InFd=*/0, /*OutFd=*/1,
                                    ServeStop)
         : !TcpHostPort.empty()
             ? serve::serveTcp(Service, TcpHostPort, ServeStop)
             : serve::serveSocket(Service, SocketPath, ServeStop);
    Service.shutdown();
  }
  if (Flusher.joinable()) {
    {
      std::lock_guard<std::mutex> L(FlushMutex);
      FlushStop = true;
    }
    FlushCV.notify_all();
    Flusher.join();
  }
  return RC;
}

//===----------------------------------------------------------------------===//
// synth
//===----------------------------------------------------------------------===//

int cmdSynth(Language Lang, const std::string &OutDir, int Projects,
             uint64_t Seed) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(OutDir, EC);
  if (EC) {
    std::cerr << "error: cannot create " << OutDir << "\n";
    return 1;
  }
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, Seed);
  Spec.NumProjects = Projects;
  std::vector<datagen::SourceFile> Files;
  {
    telemetry::TraceScope Phase("datagen");
    Files = datagen::generateCorpus(Spec);
  }
  telemetry::TraceScope Phase("write");
  size_t Count = 0;
  for (const datagen::SourceFile &File : Files) {
    const std::string FilePath =
        OutDir + "/" + File.FileName + extensionFor(Lang);
    std::ofstream Out(FilePath, std::ios::binary);
    if (!Out) {
      std::cerr << openError("write", FilePath) << "\n";
      return 1;
    }
    Out << File.Text;
    Out.flush();
    if (!Out) {
      std::cerr << openError("write", FilePath) << "\n";
      return 1;
    }
    ++Count;
  }
  std::cerr << "wrote " << Count << " files to " << OutDir << "\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// demo
//===----------------------------------------------------------------------===//

int cmdDemo(Language Lang) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, 2018);
  Spec.NumProjects = 24;
  std::vector<datagen::SourceFile> Sources;
  {
    telemetry::TraceScope Phase("datagen");
    Sources = datagen::generateCorpus(Spec);
  }
  std::cerr << "worker threads: " << parallel::resolveThreads(0) << "\n";
  Corpus C = parseCorpus(Sources, Lang); // Opens its own "parse" phase.
  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Lang, Task::VariableNames);
  ModelBundle Bundle =
      trainBundle(buildContextsArtifact(C, Task::VariableNames, Options));

  datagen::CorpusSpec Fresh = datagen::defaultSpec(Lang, 4242);
  Fresh.NumProjects = 1;
  Fresh.FilesPerProject = 1;
  auto FreshSources = datagen::generateCorpus(Fresh);
  std::string Stripped =
      datagen::render(FreshSources.front().Sketch, Lang, /*Strip=*/true);
  std::cout << "== stripped ==\n" << Stripped;
  Prediction P;
  {
    telemetry::TraceScope Phase("eval");
    P = predictSource(Bundle, Stripped, /*K=*/1);
  }
  if (!P.parsed()) {
    std::cerr << "demo parse failed\n";
    return 1;
  }
  // Listed by element id.
  std::map<ast::ElementId, const ElementPrediction *> ByElement;
  for (const ElementPrediction &E : P.Elements)
    ByElement.emplace(E.Element, &E);
  std::cout << "== predicted names ==\n";
  for (const auto &[Id, E] : ByElement)
    std::cout << "  " << P.str(E->Name) << " -> "
              << (E->Label.isValid() ? P.str(E->Label) : "?") << "\n";
  std::cout << "== original ==\n" << FreshSources.front().Text;
  std::cout << "\n";
  telemetry::MetricsRegistry::global().printTraceTable(std::cout);
  return 0;
}

//===----------------------------------------------------------------------===//
// explain
//===----------------------------------------------------------------------===//

std::string fixed4(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", X);
  return Buf;
}

int cmdExplain(Language Lang, const std::string &TaskName, int TopK,
               int Projects, uint64_t Seed) {
  std::optional<Task> TaskKind = taskFromToken(TaskName);
  if (!TaskKind)
    return usage();

  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, Seed);
  Spec.NumProjects = Projects;
  std::vector<datagen::SourceFile> Sources;
  {
    telemetry::TraceScope Phase("datagen");
    Sources = datagen::generateCorpus(Spec);
  }
  Corpus C = parseCorpus(Sources, Lang);

  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Lang, *TaskKind);
  Options.Seed = Seed;
  std::vector<ExplainedPrediction> Rows =
      explainCrfPredictions(C, *TaskKind, Options, TopK, /*MaxNodes=*/8);
  if (Rows.empty()) {
    std::cerr << "error: nothing to explain (no test-split predictions)\n";
    return 1;
  }

  size_t Index = 0;
  for (const ExplainedPrediction &P : Rows) {
    ++Index;
    TablePrinter Out("#" + std::to_string(Index) + "  " + P.Predicted +
                     (P.Correct ? "  (== gold)" : "  (gold: " + P.Gold + ")") +
                     "  score " + fixed4(P.Score) + " = bias " +
                     fixed4(P.Bias) + " + paths");
    Out.setHeader({"Path", "Neighbor", "Factor", "Score", "Weight", "Vote"});
    for (const ExplainedPrediction::PathLine &L : P.Paths)
      Out.addRow({L.Path, L.Unary ? "-" : L.Neighbor,
                  L.Unary ? "unary" : "pairwise", fixed4(L.Score),
                  fixed4(L.Weight), fixed4(L.Vote)});
    Out.print(std::cout);
  }
  size_t Correct = 0;
  for (const ExplainedPrediction &P : Rows)
    Correct += P.Correct;
  std::cerr << "explained " << Rows.size() << " predictions (" << Correct
            << " correct); each score decomposes exactly into bias + per-path"
               " contributions\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Diagnostics flushing
//===----------------------------------------------------------------------===//

/// Best-effort flush of the --metrics snapshot, the --prom exposition,
/// the --profile folded stacks, the --slow-log capture, the --flightrec
/// dump and the --trace event stream. Safe to call more than once: every
/// write is a whole-file atomic rewrite and EventLog::close() /
/// closeSlowLog() are idempotent. \returns false when a requested
/// metrics snapshot could not be written.
bool flushDiagnostics() {
  bool Ok = true;
  auto &Reg = telemetry::MetricsRegistry::global();
  if (!DiagMetricsPath.empty()) {
    if (telemetry::writeFileAtomic(DiagMetricsPath, Reg.jsonSnapshot()))
      std::cerr << "metrics written to " << DiagMetricsPath << "\n";
    else {
      std::cerr << "error: cannot write metrics to " << DiagMetricsPath
                << "\n";
      Ok = false;
    }
  }
  if (!DiagPromPath.empty() &&
      !telemetry::writeFileAtomic(DiagPromPath, Reg.prometheusSnapshot()))
    std::cerr << "error: cannot write Prometheus exposition to "
              << DiagPromPath << "\n";
  if (!DiagProfilePath.empty()) {
    if (telemetry::writeFileAtomic(
            DiagProfilePath,
            telemetry::foldedStacks(telemetry::profileLines(Reg.traceRoot()))))
      std::cerr << "profile written to " << DiagProfilePath << "\n";
    else
      std::cerr << "error: cannot write profile to " << DiagProfilePath
                << "\n";
  }
  if (!telemetry::EventLog::global().closeSlowLog())
    std::cerr << "error: cannot write the slow-request log\n";
  // Dump the flight recorder before closing the event stream: a fatal
  // exit is exactly when the last-N-records window matters.
  if (!DiagFlightRecPath.empty() &&
      telemetry::EventLog::global().dumpRing(DiagFlightRecPath))
    std::cerr << "flight recorder dumped to " << DiagFlightRecPath << "\n";
  telemetry::EventLog::global().close();
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  if (Args.empty())
    return usage();
  std::string Command = Args[0];

  // Shared flag parsing.
  std::optional<Language> Lang;
  std::string ModelPath, OutPath, MetricsPath, TracePath, ContextsPath;
  std::string SocketPath, TcpHostPort, PromPath, ProfilePath;
  std::string SlowLogPath, FlightRecPath;
  bool Stdio = false;
  double MetricsInterval = 10.0;
  double TraceMaxMb = 0;
  serve::ServeConfig ServeOptions;
  std::string TaskName = "vars";
  int Projects = 24;
  int TopK = 5;
  uint64_t Seed = 2018;
  paths::ExtractionConfig Extraction;
  bool ExtractionFlagsSeen = false;
  std::vector<std::string> Positional;
  for (size_t I = 1; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Value = [&]() -> std::string {
      return ++I < Args.size() ? Args[I] : "";
    };
    if (Arg == "--lang") {
      Lang = languageFromToken(Value());
      if (!Lang)
        return usage();
    } else if (Arg == "--model") {
      ModelPath = Value();
    } else if (Arg == "--out") {
      OutPath = Value();
    } else if (Arg == "--from-contexts") {
      ContextsPath = Value();
      if (ContextsPath.empty()) {
        std::cerr << "error: --from-contexts requires a file path\n";
        return 2;
      }
    } else if (Arg == "--metrics") {
      MetricsPath = Value();
      if (MetricsPath.empty()) {
        std::cerr << "error: --metrics requires a file path\n";
        return 2;
      }
    } else if (Arg == "--trace") {
      TracePath = Value();
      if (TracePath.empty()) {
        std::cerr << "error: --trace requires a file path\n";
        return 2;
      }
    } else if (Arg == "--top") {
      TopK = std::atoi(Value().c_str());
      if (TopK <= 0) {
        std::cerr << "error: --top wants a positive count\n";
        return 2;
      }
    } else if (Arg == "--socket") {
      SocketPath = Value();
      if (SocketPath.empty()) {
        std::cerr << "error: --socket requires a path\n";
        return 2;
      }
    } else if (Arg == "--tcp") {
      TcpHostPort = Value();
      if (TcpHostPort.empty()) {
        std::cerr << "error: --tcp requires HOST:PORT (\":0\" binds an "
                     "ephemeral port)\n";
        return 2;
      }
    } else if (Arg == "--serve-workers") {
      long N = std::atol(Value().c_str());
      if (N < 0) {
        std::cerr << "error: --serve-workers wants a non-negative count "
                     "(0 = one per core)\n";
        return 2;
      }
      ServeOptions.Workers = static_cast<size_t>(N);
    } else if (Arg == "--stdio") {
      Stdio = true;
    } else if (Arg == "--prom") {
      PromPath = Value();
      if (PromPath.empty()) {
        std::cerr << "error: --prom requires a file path\n";
        return 2;
      }
    } else if (Arg == "--profile") {
      ProfilePath = Value();
      if (ProfilePath.empty()) {
        std::cerr << "error: --profile requires a file path\n";
        return 2;
      }
    } else if (Arg == "--metrics-interval") {
      MetricsInterval = std::atof(Value().c_str());
      if (MetricsInterval <= 0) {
        std::cerr << "error: --metrics-interval wants a positive number "
                     "of seconds\n";
        return 2;
      }
    } else if (Arg == "--trace-max-mb") {
      TraceMaxMb = std::atof(Value().c_str());
      if (TraceMaxMb <= 0) {
        std::cerr << "error: --trace-max-mb wants a positive size\n";
        return 2;
      }
    } else if (Arg == "--slow-log") {
      SlowLogPath = Value();
      if (SlowLogPath.empty()) {
        std::cerr << "error: --slow-log requires a file path\n";
        return 2;
      }
    } else if (Arg == "--slow-trace-ms") {
      std::string V = Value();
      ServeOptions.SlowTraceMs = std::atof(V.c_str());
      if (V.empty() || ServeOptions.SlowTraceMs < 0) {
        std::cerr << "error: --slow-trace-ms wants a non-negative "
                     "threshold (0 captures every request)\n";
        return 2;
      }
    } else if (Arg == "--flightrec") {
      FlightRecPath = Value();
      if (FlightRecPath.empty()) {
        std::cerr << "error: --flightrec requires a file path\n";
        return 2;
      }
    } else if (Arg == "--slo-p99-ms") {
      ServeOptions.SloP99Ms = std::atof(Value().c_str());
      if (ServeOptions.SloP99Ms <= 0) {
        std::cerr << "error: --slo-p99-ms wants a positive target\n";
        return 2;
      }
    } else if (Arg == "--batch") {
      long N = std::atol(Value().c_str());
      if (N <= 0) {
        std::cerr << "error: --batch wants a positive count\n";
        return 2;
      }
      ServeOptions.MaxBatch = static_cast<size_t>(N);
    } else if (Arg == "--queue") {
      long N = std::atol(Value().c_str());
      if (N <= 0) {
        std::cerr << "error: --queue wants a positive count\n";
        return 2;
      }
      ServeOptions.QueueCapacity = static_cast<size_t>(N);
    } else if (Arg == "--task") {
      TaskName = Value();
    } else if (Arg == "--length") {
      Extraction.MaxLength = std::atoi(Value().c_str());
      ExtractionFlagsSeen = true;
    } else if (Arg == "--width") {
      Extraction.MaxWidth = std::atoi(Value().c_str());
      ExtractionFlagsSeen = true;
    } else if (Arg == "--threads") {
      long N = std::atol(Value().c_str());
      if (N < 0) {
        std::cerr << "error: --threads wants a non-negative count\n";
        return 2;
      }
      parallel::setDefaultThreads(static_cast<size_t>(N));
    } else if (Arg == "--projects") {
      Projects = std::atoi(Value().c_str());
    } else if (Arg == "--seed") {
      Seed = static_cast<uint64_t>(std::atoll(Value().c_str()));
    } else if (Arg == "--abst") {
      auto A = parseAbstraction(Value());
      if (!A)
        return usage();
      Extraction.Abst = *A;
      ExtractionFlagsSeen = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Positional.push_back(Arg);
    }
  }
  // --metrics/--trace win; PIGEON_METRICS/PIGEON_TRACE are the fallbacks
  // so wrappers can turn instrumentation on without touching command
  // lines.
  if (MetricsPath.empty()) {
    if (const char *Env = std::getenv("PIGEON_METRICS"))
      MetricsPath = Env;
  }
  if (TracePath.empty()) {
    if (const char *Env = std::getenv("PIGEON_TRACE"))
      TracePath = Env;
  }
  DiagMetricsPath = MetricsPath;
  DiagPromPath = PromPath;
  DiagProfilePath = ProfilePath;
  DiagFlightRecPath = FlightRecPath;
  if (TraceMaxMb > 0)
    telemetry::EventLog::global().setRotation(
        static_cast<uint64_t>(TraceMaxMb * 1024 * 1024));
  if (!TracePath.empty() &&
      !telemetry::EventLog::global().open(TracePath)) {
    std::cerr << "error: cannot open trace file " << TracePath << "\n";
    return 2;
  }
  if (!SlowLogPath.empty())
    telemetry::EventLog::global().openSlowLog(SlowLogPath);

  // Uncaught exceptions (including ones escaping noexcept contexts) still
  // flush whatever telemetry exists — a crashing run is exactly the one
  // whose trace matters.
  std::set_terminate([] {
    std::fputs("pigeon: terminating on unhandled exception\n", stderr);
    flushDiagnostics();
    std::abort();
  });

  std::optional<int> RC;
  try {
    // Only `explain` runs the types task; extract and train name tasks.
    auto ParseTask = [&]() -> std::optional<Task> {
      std::optional<Task> T = taskFromToken(TaskName);
      return T == Task::FullTypes ? std::nullopt : T;
    };
    if (Command == "extract") {
      if (!OutPath.empty()) {
        // Corpus mode: write a pigeon.contexts.v1 artifact.
        if (!Lang || Positional.empty())
          return usage();
        auto TaskKind = ParseTask();
        if (!TaskKind)
          return usage();
        RC = cmdExtractCorpus(*Lang, *TaskKind,
                              ExtractionFlagsSeen
                                  ? Extraction
                                  : tunedExtraction(*Lang, *TaskKind),
                              OutPath, Positional);
      } else {
        if (!Lang || Positional.size() != 1)
          return usage();
        RC = cmdExtract(*Lang, Extraction, Positional[0]);
      }
    } else if (Command == "train") {
      if (OutPath.empty())
        return usage();
      if (!ContextsPath.empty()) {
        // Language, task, and extraction config come from the artifact.
        if (!Positional.empty())
          return usage();
        RC = cmdTrainFromContexts(ContextsPath, OutPath);
      } else {
        if (!Lang || Positional.empty())
          return usage();
        auto TaskKind = ParseTask();
        if (!TaskKind)
          return usage();
        RC = cmdTrain(*Lang, *TaskKind, OutPath, Positional);
      }
    } else if (Command == "eval") {
      if (ModelPath.empty())
        return usage();
      if (ContextsPath.empty() && Positional.empty())
        return usage();
      if (!ContextsPath.empty() && !Positional.empty())
        return usage();
      RC = cmdEval(ModelPath, ContextsPath, Lang, Positional);
    } else if (Command == "predict") {
      if (ModelPath.empty() || Positional.size() != 1)
        return usage();
      RC = cmdPredict(ModelPath, Positional[0]);
    } else if (Command == "serve") {
      int Transports = (Stdio ? 1 : 0) + (!SocketPath.empty() ? 1 : 0) +
                       (!TcpHostPort.empty() ? 1 : 0);
      if (ModelPath.empty() || !Positional.empty() || Transports != 1)
        return usage();
      RC = cmdServe(ModelPath, SocketPath, TcpHostPort, Stdio,
                    ServeOptions, MetricsInterval);
    } else if (Command == "demo") {
      if (!Lang)
        return usage();
      RC = cmdDemo(*Lang);
    } else if (Command == "synth") {
      if (!Lang || OutPath.empty() || Projects <= 0)
        return usage();
      RC = cmdSynth(*Lang, OutPath, Projects, Seed);
    } else if (Command == "explain") {
      if (!Lang || Projects <= 0)
        return usage();
      RC = cmdExplain(*Lang, TaskName, TopK, Projects, Seed);
    }
  } catch (const std::exception &E) {
    std::cerr << "pigeon: fatal: " << E.what() << "\n";
    flushDiagnostics();
    return 1;
  }
  if (!RC) {
    flushDiagnostics();
    return usage();
  }

  if (telemetry::EventLog::global().enabled())
    telemetry::EventLog::global().record(
        "exit", {{"code", std::to_string(*RC)}});
  if (!flushDiagnostics() && *RC == 0)
    RC = 1;
  return *RC;
}

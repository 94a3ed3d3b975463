//===- Pipeline.cpp - Corpus parsing, splitting, task selectors -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "datagen/DomainClasses.h"
#include "lang/csharp/CsParser.h"
#include "lang/java/JavaParser.h"
#include "lang/java/TypeChecker.h"
#include "lang/js/JsParser.h"
#include "lang/python/PyParser.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>

using namespace pigeon;
using namespace pigeon::core;
using pigeon::lang::Language;

size_t Corpus::numProjects() const {
  std::set<std::string> Projects;
  for (const ParsedFile &File : Files)
    Projects.insert(File.Project);
  return Projects.size();
}

namespace {

/// The one token table per concept. The canonical token of each value
/// comes first; aliases follow.
constexpr std::pair<std::string_view, Language> LanguageTokens[] = {
    {"js", Language::JavaScript},
    {"java", Language::Java},
    {"py", Language::Python},
    {"cs", Language::CSharp},
    {"javascript", Language::JavaScript},
    {"python", Language::Python},
    {"csharp", Language::CSharp},
};

constexpr std::pair<std::string_view, Task> TaskTokens[] = {
    {"vars", Task::VariableNames},
    {"methods", Task::MethodNames},
    {"types", Task::FullTypes},
};

/// The first token of \p Value in \p Table (its canonical one).
template <typename T, size_t N>
const char *tokenOf(const std::pair<std::string_view, T> (&Table)[N],
                    T Value) {
  for (const auto &[Token, V] : Table)
    if (V == Value)
      return Token.data();
  return "unknown";
}

/// The value \p Token names in \p Table, if any.
template <typename T, size_t N>
std::optional<T> valueOf(const std::pair<std::string_view, T> (&Table)[N],
                         std::string_view Token) {
  for (const auto &[Name, V] : Table)
    if (Name == Token)
      return V;
  return std::nullopt;
}

/// One dropped file as a shard worker saw it: the record for the corpus
/// plus the raw first-diagnostic text for reason accounting.
struct ShardFailure {
  ParseFailureRecord Record;
  std::string RawReason;
};

/// Everything one shard worker produced from its contiguous file range.
/// Files and failures are in file order; trees parsed against a delta
/// overlay carry provisional symbols for the shard's novel strings, fixed
/// up by the commit/remap passes of parseCorpus.
struct ParseShard {
  std::vector<ParsedFile> Files;
  std::vector<ShardFailure> Failures;
  size_t SourceBytes = 0;
  uint64_t FilesOk = 0;
};

/// Parses one contiguous range of sources into \p SI (the shared corpus
/// interner for chunk 0 and serial parses, a delta overlay over it for
/// the other shards). This is the exact per-file sequence of the serial
/// parse — including the inline Java type annotation, which interns type
/// strings between files — so committing shard overlays in shard order
/// replays the serial intern order. \p CP is the shared read-only Java
/// class path (null for other languages, which never consult it).
ParseShard parseShard(std::span<const datagen::SourceFile> Sources,
                      Language Lang, StringInterner &SI,
                      const java::ClassPath *CP) {
  ParseShard Shard;
  for (const datagen::SourceFile &Src : Sources) {
    Shard.SourceBytes += Src.Text.size();
    lang::ParseResult R = parseSource(Lang, Src.Text, SI);
    if (!R.Tree || !R.Diags.empty()) {
      std::string Reason =
          R.Diags.empty() ? "no tree" : R.Diags.front().Message;
      Shard.Failures.push_back(
          {{Src.FileName, R.Diags.empty() ? Reason : R.Diags.front().str()},
           std::move(Reason)});
      continue;
    }
    ++Shard.FilesOk;
    if (Lang == Language::Java)
      java::annotateTypes(*R.Tree, *CP);
    Shard.Files.push_back({Src.Project, Src.FileName, std::move(*R.Tree)});
  }
  return Shard;
}

/// Process-global budget of distinct `parse.fail.reason.*` counters.
struct ReasonBudget {
  std::mutex Mutex;
  std::set<std::string> Seen;
  size_t Remaining = 16;
};

ReasonBudget &reasonBudget() {
  static ReasonBudget Budget;
  return Budget;
}

} // namespace

const char *core::languageToken(Language Lang) {
  return tokenOf(LanguageTokens, Lang);
}

std::optional<Language> core::languageFromToken(std::string_view Token) {
  return valueOf(LanguageTokens, Token);
}

const char *core::taskToken(Task T) { return tokenOf(TaskTokens, T); }

std::optional<Task> core::taskFromToken(std::string_view Token) {
  return valueOf(TaskTokens, Token);
}

lang::ParseResult core::parseSource(Language Lang, std::string_view Source,
                                    StringInterner &SI) {
  switch (Lang) {
  case Language::JavaScript:
    return js::parse(Source, SI);
  case Language::Java:
    return java::parse(Source, SI);
  case Language::Python:
    return py::parse(Source, SI);
  case Language::CSharp:
    return cs::parse(Source, SI);
  }
  return {};
}

std::string core::metricSafeReason(std::string_view Raw) {
  constexpr size_t MaxLen = 48;
  std::string Out;
  Out.reserve(std::min(Raw.size(), MaxLen));
  for (char Ch : Raw) {
    if (Out.size() >= MaxLen)
      break;
    unsigned char U = static_cast<unsigned char>(Ch);
    if ((U >= 'a' && U <= 'z') || (U >= '0' && U <= '9') || U == '.' ||
        U == '-' || U == '_')
      Out += Ch;
    else if (U >= 'A' && U <= 'Z')
      Out += static_cast<char>(U - 'A' + 'a');
    else if (!Out.empty() && Out.back() != '_')
      Out += '_';
  }
  while (!Out.empty() && Out.back() == '_')
    Out.pop_back();
  return Out.empty() ? "unknown" : Out;
}

void core::recordParseFailureReason(std::string_view RawReason) {
  auto &Reg = telemetry::MetricsRegistry::global();
  std::string Key = metricSafeReason(RawReason);
  ReasonBudget &Budget = reasonBudget();
  std::lock_guard<std::mutex> Lock(Budget.Mutex);
  if (!Budget.Seen.count(Key)) {
    if (Budget.Remaining == 0) {
      Reg.counter("parse.fail.reason.other").inc();
      return;
    }
    Budget.Seen.insert(Key);
    --Budget.Remaining;
  }
  Reg.counter("parse.fail.reason." + Key).inc();
}

Corpus core::parseCorpus(const std::vector<datagen::SourceFile> &Sources,
                         Language Lang, size_t Threads) {
  static const telemetry::Stage ParseStage("parse");
  telemetry::TraceScope Phase(ParseStage);
  auto &Reg = telemetry::MetricsRegistry::global();
  const std::string Prefix = std::string("parse.") + languageToken(Lang);

  size_t T = parallel::resolveThreads(Threads);

  // Cost-balanced chunk plan over source bytes: parse time tracks input
  // size, so one outsized file lands in its own (stealable) chunk.
  std::vector<uint64_t> Costs;
  Costs.reserve(Sources.size());
  for (const datagen::SourceFile &Src : Sources)
    Costs.push_back(Src.Text.size());
  parallel::ChunkPlan Plan = parallel::planChunks(Sources.size(), T, Costs);
  size_t NumShards = Plan.count();

  Corpus Out;
  Out.Lang = Lang;
  Out.Interner = std::make_unique<StringInterner>();

  // The Java class path is immutable once built and only read by the
  // type checker, so one instance is shared by every shard. Other
  // languages never consult it — don't pay for its construction.
  std::optional<java::ClassPath> CP;
  if (Lang == Language::Java) {
    CP.emplace(java::ClassPath::standard());
    datagen::addDomainClasses(*CP);
  }
  const java::ClassPath *CPPtr = CP ? &*CP : nullptr;

  // Chunk 0 parses serially, straight into the shared corpus interner.
  // This warms the symbol table with the corpus' common vocabulary, so
  // the overlays of the remaining chunks — which read the now-frozen
  // shared interner lock-free — stay small: they hold only strings whose
  // serial first encounter falls inside their own chunk.
  std::vector<ParseShard> Shards(std::max<size_t>(NumShards, 1));
  if (NumShards > 0)
    Shards[0] = parseShard(
        {Sources.data() + Plan.begin(0), Plan.end(0) - Plan.begin(0)}, Lang,
        *Out.Interner, CPPtr);
  Out.Files = std::move(Shards[0].Files);

  if (NumShards > 1) {
    std::vector<std::unique_ptr<StringInterner>> Overlays(NumShards);
    parallel::parallelChunks(
        Plan, T,
        [&](size_t Chunk, size_t Begin, size_t End) {
          Overlays[Chunk] = std::make_unique<StringInterner>(
              StringInterner::Delta, *Out.Interner);
          Shards[Chunk] = parseShard({Sources.data() + Begin, End - Begin},
                                     Lang, *Overlays[Chunk], CPPtr);
        },
        /*FirstChunk=*/1);

    // Ordered commit: interning each overlay's novel strings in overlay
    // id order, chunk by chunk, replays the serial first-encounter
    // order, so the shared interner ends up bit-identical to a
    // single-threaded parse. Cost is one intern per *novel* string —
    // the per-shard full re-intern and O(corpus) remap walk are gone.
    std::vector<std::vector<uint32_t>> Maps(NumShards);
    for (size_t Chunk = 1; Chunk < NumShards; ++Chunk)
      if (Overlays[Chunk])
        Maps[Chunk] = Out.Interner->commitDelta(*Overlays[Chunk]);

    // Provisional fix-up runs parallel again: each tree only swaps the
    // few symbols its own shard discovered. Shards whose overlay stayed
    // empty still need the interner repointed (cheap, no symbol walk).
    parallel::parallelChunks(
        Plan, T,
        [&](size_t Chunk, size_t, size_t) {
          if (!Overlays[Chunk] || Overlays[Chunk]->deltaSize() == 0) {
            for (ParsedFile &File : Shards[Chunk].Files)
              File.Tree.remapProvisional({}, *Out.Interner);
            return;
          }
          for (ParsedFile &File : Shards[Chunk].Files)
            File.Tree.remapProvisional(Maps[Chunk], *Out.Interner);
        },
        /*FirstChunk=*/1);
    for (size_t Chunk = 1; Chunk < NumShards; ++Chunk)
      for (ParsedFile &File : Shards[Chunk].Files)
        Out.Files.push_back(std::move(File));
  }
  for (ParseShard &Shard : Shards) {
    Out.SourceBytes += Shard.SourceBytes;
    Out.ParseFailures += Shard.Failures.size();
    for (ShardFailure &Failure : Shard.Failures) {
      if (Out.FailureRecords.size() < Corpus::MaxFailureRecords)
        Out.FailureRecords.push_back(std::move(Failure.Record));
      recordParseFailureReason(Failure.RawReason);
    }
    Reg.counter("parse.files.ok").add(Shard.FilesOk);
    Reg.counter(Prefix + ".files.ok").add(Shard.FilesOk);
  }
  Reg.counter("parse.files.failed").add(Out.ParseFailures);
  Reg.counter(Prefix + ".files.failed").add(Out.ParseFailures);
  Reg.counter("parse.bytes").add(Out.SourceBytes);
  return Out;
}

Split core::splitByProject(const Corpus &Corpus, double TestFraction,
                           uint64_t Seed) {
  // Deterministic project ordering, shuffled by seed, cut by fraction.
  std::map<std::string, std::vector<size_t>> ByProject;
  for (size_t I = 0; I < Corpus.Files.size(); ++I)
    ByProject[Corpus.Files[I].Project].push_back(I);
  std::vector<std::string> Projects;
  Projects.reserve(ByProject.size());
  for (const auto &[Project, Indices] : ByProject)
    Projects.push_back(Project);
  Rng R = Rng::forStream(Seed, "project-split");
  R.shuffle(Projects);

  // A non-positive fraction means "no test split" — don't steal a
  // project into test. A positive fraction reserves at least one project
  // (but never the whole corpus when there is more than one project).
  size_t NumTest =
      TestFraction <= 0.0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(
                       TestFraction * static_cast<double>(Projects.size())));
  NumTest = std::min(NumTest, Projects.size() > 1 ? Projects.size() - 1
                                                  : Projects.size());
  Split Out;
  for (size_t P = 0; P < Projects.size(); ++P) {
    const std::vector<size_t> &Indices = ByProject[Projects[P]];
    auto &Dest = P < NumTest ? Out.Test : Out.Train;
    Dest.insert(Dest.end(), Indices.begin(), Indices.end());
  }
  std::sort(Out.Train.begin(), Out.Train.end());
  std::sort(Out.Test.begin(), Out.Test.end());
  return Out;
}

const char *core::taskName(Task T) {
  switch (T) {
  case Task::VariableNames:
    return "variable names";
  case Task::MethodNames:
    return "method names";
  case Task::FullTypes:
    return "full types";
  }
  return "invalid";
}

paths::ExtractionConfig core::tunedExtraction(Language Lang, Task T) {
  paths::ExtractionConfig Config;
  switch (T) {
  case Task::VariableNames:
    switch (Lang) {
    case Language::JavaScript:
      Config.MaxLength = 4;
      Config.MaxWidth = 3;
      break;
    case Language::Java:
      Config.MaxLength = 6;
      Config.MaxWidth = 3;
      break;
    case Language::Python:
      Config.MaxLength = 7;
      Config.MaxWidth = 4;
      break;
    case Language::CSharp:
      Config.MaxLength = 7;
      Config.MaxWidth = 4;
      break;
    }
    break;
  case Task::MethodNames:
    switch (Lang) {
    case Language::JavaScript:
      Config.MaxLength = 8;
      Config.MaxWidth = 4;
      break;
    case Language::Java:
      Config.MaxLength = 6;
      Config.MaxWidth = 2;
      break;
    case Language::Python:
      Config.MaxLength = 8;
      Config.MaxWidth = 6;
      break;
    case Language::CSharp:
      Config.MaxLength = 8;
      Config.MaxWidth = 4;
      break;
    }
    break;
  case Task::FullTypes:
    Config.MaxLength = 4;
    Config.MaxWidth = 1;
    break;
  }
  return Config;
}

crf::ElementSelector core::selectorFor(Task T) {
  switch (T) {
  case Task::VariableNames:
    return [](const ast::ElementInfo &Info) {
      return Info.Predictable &&
             (Info.Kind == ast::ElementKind::LocalVar ||
              Info.Kind == ast::ElementKind::Parameter);
    };
  case Task::MethodNames:
    return [](const ast::ElementInfo &Info) {
      return Info.Predictable && Info.Kind == ast::ElementKind::Method;
    };
  case Task::FullTypes:
    return [](const ast::ElementInfo &) { return false; };
  }
  return [](const ast::ElementInfo &) { return false; };
}

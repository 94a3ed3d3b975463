//===- Experiments.cpp - Experiment runners for the evaluation ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include "baselines/Baselines.h"
#include "ml/common/Metrics.h"
#include "support/EventLog.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <optional>

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using namespace pigeon::crf;
using namespace pigeon::paths;

const char *core::representationName(Representation R) {
  switch (R) {
  case Representation::AstPaths:
    return "AST paths";
  case Representation::NoPaths:
    return "no-paths";
  case Representation::IntraStatement:
    return "single-statement relations (UnuglifyJS-style)";
  case Representation::Ngrams:
    return "token n-grams";
  }
  return "invalid";
}

const char *core::w2vContextsName(W2vContexts C) {
  switch (C) {
  case W2vContexts::AstPaths:
    return "AST paths";
  case W2vContexts::TokenStream:
    return "linear token-stream";
  case W2vContexts::PathNeighbors:
    return "path-neighbors, no-paths";
  }
  return "invalid";
}

namespace {

/// Extracts the contexts a representation feeds to the CRF.
std::vector<PathContext> contextsFor(const Tree &Tree,
                                     const CrfExperimentOptions &Options,
                                     PathTable &Table) {
  switch (Options.Repr) {
  case Representation::AstPaths:
    return extractPathContexts(Tree, Options.Extraction, Table);
  case Representation::NoPaths: {
    // The paper's no-path baseline is a "bag of near identifiers": the
    // neighbours' names without any syntactic relation. Semi-paths would
    // leak ancestor kinds (structure) into the bag, so they are off.
    ExtractionConfig Config = Options.Extraction;
    Config.Abst = Abstraction::NoPath;
    Config.IncludeSemiPaths = false;
    return extractPathContexts(Tree, Config, Table);
  }
  case Representation::IntraStatement: {
    auto All = extractPathContexts(Tree, Options.Extraction, Table);
    return baselines::filterIntraStatement(Tree, All);
  }
  case Representation::Ngrams:
    return baselines::ngramContexts(Tree, Options.NgramN, Table);
  }
  return {};
}

void downsample(std::vector<PathContext> &Contexts, double KeepP, Rng &R) {
  if (KeepP >= 1.0)
    return;
  std::vector<PathContext> Kept;
  Kept.reserve(Contexts.size());
  for (const PathContext &Ctx : Contexts)
    if (R.nextBool(KeepP))
      Kept.push_back(Ctx);
  Contexts = std::move(Kept);
}

/// Bare variable reads and arithmetic are trivially typed by a nearby
/// declaration or operand; the regime the paper's type task evaluates is
/// API-shaped expressions whose types require signature knowledge.
bool isApiTypeTarget(const Corpus &Corpus, const Tree &T, NodeId Id) {
  std::string_view K = Corpus.Interner->str(T.node(Id).Kind);
  return K == "MethodCallExpr" || K == "FieldAccessExpr" ||
         K == "ObjectCreationExpr" || K == "CastExpr" ||
         K == "ArrayCreationExpr";
}

} // namespace

std::vector<FileContexts>
core::extractCorpusContexts(const Corpus &Corpus,
                            const std::vector<size_t> &Indices,
                            const CrfExperimentOptions &Options,
                            PathTable &Table) {
  static const parallel::StageHandles ExtractStage("extract");
  parallel::StageTimer Stage(ExtractStage);
  std::vector<FileContexts> Out(Indices.size());

  // Per file, the intern order into the table is pairwise contexts first,
  // then (when enabled) 3-wise contexts — exactly the order the serial
  // experiment loop produces.
  auto ExtractFile = [&](size_t I, PathTable &Into) {
    const Tree &T = Corpus.Files[Indices[I]].Tree;
    Out[I].Contexts = contextsFor(T, Options, Into);
    if (Options.TriContexts)
      Out[I].Tris = extractTriContexts(T, Options.Extraction, Into);
  };

  size_t Threads = parallel::resolveThreads(Options.Threads);
  // Cost-balanced plan over tree sizes: extraction work scales with node
  // count, so a giant tree gets an (oversubscribed, stealable) chunk of
  // its own instead of anchoring a straggler.
  std::vector<uint64_t> Costs;
  Costs.reserve(Indices.size());
  for (size_t I : Indices)
    Costs.push_back(Corpus.Files[I].Tree.size());
  parallel::ChunkPlan Plan =
      parallel::planChunks(Indices.size(), Threads, Costs);
  size_t NumChunks = Plan.count();
  if (NumChunks <= 1) {
    for (size_t I = 0; I < Indices.size(); ++I)
      ExtractFile(I, Table);
    return Out;
  }

  // Chunk 0 extracts serially into the shared table, warming it with the
  // common paths; the remaining chunks extract into delta overlays that
  // read the then-frozen shared table and store only novel paths.
  for (size_t I = Plan.begin(0); I < Plan.end(0); ++I)
    ExtractFile(I, Table);
  std::vector<std::unique_ptr<PathTable>> Overlays(NumChunks);
  parallel::parallelChunks(
      Plan, Threads,
      [&](size_t Chunk, size_t Begin, size_t End) {
        Overlays[Chunk] =
            std::make_unique<PathTable>(PathTable::Delta, Table);
        for (size_t I = Begin; I < End; ++I)
          ExtractFile(I, *Overlays[Chunk]);
      },
      /*FirstChunk=*/1);

  // Absorbing the overlays' novel paths in chunk order replays the serial
  // first-encounter order of path bytes, so the rewritten PathIds (and
  // Table itself) match a single-threaded extraction bit for bit. Only
  // provisional ids need rewriting — final ids were already assigned by
  // the shared table — and the fix-up runs parallel again.
  std::vector<std::vector<PathId>> Maps(NumChunks);
  for (size_t Chunk = 1; Chunk < NumChunks; ++Chunk)
    if (Overlays[Chunk])
      Maps[Chunk] = Table.absorb(*Overlays[Chunk]);
  parallel::parallelChunks(
      Plan, Threads,
      [&](size_t Chunk, size_t Begin, size_t End) {
        const std::vector<PathId> &Map = Maps[Chunk];
        constexpr PathId Bit = PathTable::ProvisionalBit;
        for (size_t I = Begin; I < End; ++I) {
          for (PathContext &Ctx : Out[I].Contexts)
            if (Ctx.Path != InvalidPath && (Ctx.Path & Bit))
              Ctx.Path = Map[Ctx.Path & ~Bit];
          for (TriContext &Tri : Out[I].Tris)
            if (Tri.Path != InvalidPath && (Tri.Path & Bit))
              Tri.Path = Map[Tri.Path & ~Bit];
        }
      },
      /*FirstChunk=*/1);
  return Out;
}

ExperimentResult
core::runCrfNameExperiment(const Corpus &Corpus, Task Task,
                           const CrfExperimentOptions &Options) {
  assert(Task != Task::FullTypes && "use runCrfTypeExperiment");
  ExperimentResult Result;
  Split S = splitByProject(Corpus, Options.TestFraction, Options.Seed);
  ElementSelector Selector = selectorFor(Task);
  PathTable Table;
  Rng Sampler = Rng::forStream(Options.Seed, "downsample");

  // Serial per-file graph assembly over pre-extracted contexts. Kept
  // sequential on purpose: the downsampler draws from one shared Rng
  // stream and addTriFactors interns composite labels into the corpus
  // interner, both of which must happen in file order to stay
  // bit-identical to a single-threaded run.
  auto AssembleGraphs = [&](const std::vector<size_t> &Indices,
                            std::vector<FileContexts> &Extracted,
                            bool Downsample) {
    std::vector<CrfGraph> Graphs;
    Graphs.reserve(Indices.size());
    for (size_t I = 0; I < Indices.size(); ++I) {
      const Tree &T = Corpus.Files[Indices[I]].Tree;
      FileContexts &FC = Extracted[I];
      if (Downsample) {
        downsample(FC.Contexts, Options.DownsampleP, Sampler);
        Result.TrainContexts += FC.Contexts.size();
      }
      CrfGraph G = buildGraph(T, FC.Contexts, Selector);
      if (Options.TriContexts)
        addTriFactors(G, T, FC.Tris, Selector, *Corpus.Interner);
      Graphs.push_back(std::move(G));
    }
    return Graphs;
  };

  CrfModel Model(Options.Crf);
  {
    telemetry::TraceScope TrainPhase("train");
    std::vector<CrfGraph> TrainGraphs;
    {
      telemetry::TraceScope ExtractPhase("extract");
      auto Extracted = extractCorpusContexts(Corpus, S.Train, Options, Table);
      TrainGraphs = AssembleGraphs(S.Train, Extracted, /*Downsample=*/true);
    }
    Model.train(TrainGraphs);
    Result.TrainSeconds = TrainPhase.seconds();
  }
  Result.NumFeatures = Model.numFeatures();
  Result.DistinctPaths = Table.size();

  telemetry::TraceScope EvalPhase("eval");
  telemetry::EventLog &Log = telemetry::EventLog::global();
  const char *Tag = taskToken(Task);
  ml::AccuracyMeter Meter;
  ml::SubTokenMeter SubMeter;
  const StringInterner &SI = *Corpus.Interner;
  auto TestExtracted = extractCorpusContexts(Corpus, S.Test, Options, Table);
  std::vector<CrfGraph> TestGraphs =
      AssembleGraphs(S.Test, TestExtracted, /*Downsample=*/false);
  std::vector<std::vector<Symbol>> Preds =
      Model.predictBatch(TestGraphs, Options.Threads);
  for (size_t I = 0; I < TestGraphs.size(); ++I) {
    const CrfGraph &G = TestGraphs[I];
    for (uint32_t N : G.Unknowns) {
      std::string Gold(SI.str(G.Nodes[N].Gold));
      std::string Predicted(Preds[I][N].isValid() ? SI.str(Preds[I][N])
                                                  : std::string_view());
      Meter.add(Predicted, Gold);
      SubMeter.add(Predicted, Gold);
      // Misprediction provenance: with the event log open, every wrong
      // answer leaves the per-path evidence it was scored on.
      if (Log.enabled() && Preds[I][N].isValid() && Predicted != Gold)
        logPredictionProvenance(
            Tag, SI, Table, Gold, Predicted,
            Model.explain(G, N, Preds[I][N], Preds[I], 5));
    }
  }
  Result.Accuracy = Meter.accuracy();
  Result.SubtokenF1 = SubMeter.f1();
  Result.Predictions = Meter.total();
  telemetry::MetricsRegistry::global()
      .gauge(std::string("eval.") + Tag + ".accuracy")
      .set(Result.Accuracy);
  return Result;
}

std::vector<CrfGraph>
core::buildTypeGraphs(const Corpus &Corpus,
                      const std::vector<size_t> &Indices,
                      const CrfExperimentOptions &Options, PathTable &Table,
                      size_t *ContextCount) {
  // Sharded like extractCorpusContexts: chunk 0 warms the shared table,
  // the other chunks extract through delta overlays and build graphs
  // whose factors may carry provisional PathIds; the commit absorbs
  // overlays in chunk order and the fix-up rewrites only provisional
  // factor paths, reproducing the serial ids exactly (buildTypeGraph
  // itself interns nothing).
  auto FileGraphs = [&](size_t I, PathTable &Into, size_t &Contexts,
                        std::vector<CrfGraph> &Graphs) {
    const Tree &T = Corpus.Files[I].Tree;
    for (NodeId Target : T.typedNodes()) {
      if (!isApiTypeTarget(Corpus, T, Target))
        continue;
      auto Paths = extractPathsToNode(T, Target, Options.Extraction, Into);
      Contexts += Paths.size();
      Graphs.push_back(buildTypeGraph(T, Target, Paths));
    }
  };

  size_t Threads = parallel::resolveThreads(Options.Threads);
  std::vector<uint64_t> Costs;
  Costs.reserve(Indices.size());
  for (size_t I : Indices)
    Costs.push_back(Corpus.Files[I].Tree.size());
  parallel::ChunkPlan Plan =
      parallel::planChunks(Indices.size(), Threads, Costs);
  size_t NumChunks = Plan.count();
  std::vector<CrfGraph> Graphs;
  size_t Contexts = 0;
  if (NumChunks <= 1) {
    for (size_t I : Indices)
      FileGraphs(I, Table, Contexts, Graphs);
  } else {
    struct ChunkOut {
      std::unique_ptr<PathTable> Overlay;
      std::vector<CrfGraph> Graphs;
      size_t Contexts = 0;
    };
    std::vector<ChunkOut> Chunks(NumChunks);
    // Chunk 0 warms the shared table serially; the rest extract into
    // delta overlays over the then-frozen table (same shape as
    // extractCorpusContexts above).
    for (size_t P = Plan.begin(0); P < Plan.end(0); ++P)
      FileGraphs(Indices[P], Table, Chunks[0].Contexts, Chunks[0].Graphs);
    parallel::parallelChunks(
        Plan, Threads,
        [&](size_t Chunk, size_t Begin, size_t End) {
          Chunks[Chunk].Overlay =
              std::make_unique<PathTable>(PathTable::Delta, Table);
          for (size_t P = Begin; P < End; ++P)
            FileGraphs(Indices[P], *Chunks[Chunk].Overlay,
                       Chunks[Chunk].Contexts, Chunks[Chunk].Graphs);
        },
        /*FirstChunk=*/1);
    std::vector<std::vector<PathId>> Maps(NumChunks);
    for (size_t Chunk = 1; Chunk < NumChunks; ++Chunk)
      if (Chunks[Chunk].Overlay)
        Maps[Chunk] = Table.absorb(*Chunks[Chunk].Overlay);
    parallel::parallelChunks(
        Plan, Threads,
        [&](size_t Chunk, size_t, size_t) {
          const std::vector<PathId> &Map = Maps[Chunk];
          constexpr PathId Bit = PathTable::ProvisionalBit;
          for (CrfGraph &G : Chunks[Chunk].Graphs)
            for (Factor &F : G.Factors)
              if (F.Path != InvalidPath && (F.Path & Bit))
                F.Path = Map[F.Path & ~Bit];
        },
        /*FirstChunk=*/1);
    for (ChunkOut &C : Chunks) {
      for (CrfGraph &G : C.Graphs)
        Graphs.push_back(std::move(G));
      Contexts += C.Contexts;
    }
  }
  if (ContextCount)
    *ContextCount += Contexts;
  return Graphs;
}

ExperimentResult
core::runCrfTypeExperiment(const Corpus &Corpus,
                           const CrfExperimentOptions &Options) {
  ExperimentResult Result;
  Split S = splitByProject(Corpus, Options.TestFraction, Options.Seed);
  PathTable Table;

  CrfModel Model(Options.Crf);
  {
    telemetry::TraceScope TrainPhase("train");
    std::optional<telemetry::TraceScope> ExtractPhase;
    ExtractPhase.emplace("extract");
    std::vector<CrfGraph> TrainGraphs =
        buildTypeGraphs(Corpus, S.Train, Options, Table,
                        &Result.TrainContexts);
    ExtractPhase.reset();
    Model.train(TrainGraphs);
    Result.TrainSeconds = TrainPhase.seconds();
  }
  Result.NumFeatures = Model.numFeatures();
  Result.DistinctPaths = Table.size();

  // Types are compared by exact string ("int[]" must not match "int", so
  // the name-normalising metric is too lenient here).
  telemetry::TraceScope EvalPhase("eval");
  telemetry::EventLog &Log = telemetry::EventLog::global();
  const StringInterner &SI = *Corpus.Interner;
  size_t Total = 0, Correct = 0;
  std::vector<CrfGraph> TestGraphs =
      buildTypeGraphs(Corpus, S.Test, Options, Table, nullptr);
  std::vector<std::vector<Symbol>> Preds =
      Model.predictBatch(TestGraphs, Options.Threads);
  for (size_t I = 0; I < TestGraphs.size(); ++I) {
    const CrfGraph &G = TestGraphs[I];
    for (uint32_t N : G.Unknowns) {
      ++Total;
      bool Right = Preds[I][N].isValid() &&
                   SI.str(Preds[I][N]) == SI.str(G.Nodes[N].Gold);
      if (Right)
        ++Correct;
      else if (Log.enabled() && Preds[I][N].isValid())
        logPredictionProvenance(
            "types", SI, Table, SI.str(G.Nodes[N].Gold),
            SI.str(Preds[I][N]),
            Model.explain(G, N, Preds[I][N], Preds[I], 5));
    }
  }
  Result.Predictions = Total;
  Result.Accuracy =
      Total == 0 ? 0.0
                 : static_cast<double>(Correct) / static_cast<double>(Total);
  telemetry::MetricsRegistry::global()
      .gauge("eval.types.accuracy")
      .set(Result.Accuracy);
  return Result;
}

ExperimentResult core::runRuleBasedJava(const Corpus &Corpus,
                                        double TestFraction, uint64_t Seed) {
  ExperimentResult Result;
  Split S = splitByProject(Corpus, TestFraction, Seed);
  const StringInterner &SI = *Corpus.Interner;
  ml::AccuracyMeter Meter;
  ElementSelector Selector = selectorFor(Task::VariableNames);
  for (size_t I : S.Test) {
    const Tree &T = Corpus.Files[I].Tree;
    auto Predictions = baselines::ruleBasedJavaNames(T);
    for (ElementId E = 0; E < T.elements().size(); ++E) {
      const ElementInfo &Info = T.element(E);
      if (!Selector(Info) || T.occurrences(E).empty())
        continue;
      auto It = Predictions.find(E);
      Meter.add(It == Predictions.end() ? "" : It->second,
                SI.str(Info.Name));
    }
  }
  Result.Accuracy = Meter.accuracy();
  Result.Predictions = Meter.total();
  return Result;
}

ExperimentResult core::runSubtokenMethodNamer(const Corpus &Corpus,
                                              double TestFraction,
                                              uint64_t Seed) {
  ExperimentResult Result;
  Split S = splitByProject(Corpus, TestFraction, Seed);
  baselines::SubtokenMethodNamer Namer;
  std::vector<baselines::SubtokenMethodNamer::Example> TrainExamples;
  {
    telemetry::TraceScope TrainPhase("train");
    for (size_t I : S.Train) {
      auto Examples = baselines::methodExamples(Corpus.Files[I].Tree);
      TrainExamples.insert(TrainExamples.end(), Examples.begin(),
                           Examples.end());
    }
    Namer.train(TrainExamples);
    Result.TrainSeconds = TrainPhase.seconds();
  }

  ml::AccuracyMeter Meter;
  ml::SubTokenMeter SubMeter;
  for (size_t I : S.Test) {
    for (const auto &Ex : baselines::methodExamples(Corpus.Files[I].Tree)) {
      std::string Predicted = Namer.predict(Ex.BodyIdentifiers);
      Meter.add(Predicted, Ex.Name);
      SubMeter.add(Predicted, Ex.Name);
    }
  }
  Result.Accuracy = Meter.accuracy();
  Result.SubtokenF1 = SubMeter.f1();
  Result.Predictions = Meter.total();
  return Result;
}

ExperimentResult core::runStringTypeBaseline(const Corpus &Corpus,
                                             double TestFraction,
                                             uint64_t Seed) {
  ExperimentResult Result;
  Split S = splitByProject(Corpus, TestFraction, Seed);
  const StringInterner &SI = *Corpus.Interner;
  size_t Total = 0, Correct = 0;
  for (size_t I : S.Test) {
    const Tree &T = Corpus.Files[I].Tree;
    for (NodeId Target : T.typedNodes()) {
      if (!isApiTypeTarget(Corpus, T, Target))
        continue;
      ++Total;
      if (SI.str(T.typeOf(Target)) == "java.lang.String")
        ++Correct;
    }
  }
  Result.Predictions = Total;
  Result.Accuracy =
      Total == 0 ? 0.0
                 : static_cast<double>(Correct) / static_cast<double>(Total);
  return Result;
}

//===----------------------------------------------------------------------===//
// word2vec experiments
//===----------------------------------------------------------------------===//

namespace {

/// Per-element word2vec context strings under one encoding. Only contexts
/// whose other end is *known* (not itself a prediction target) are used,
/// in both training and testing.
std::vector<std::pair<ElementId, std::string>>
w2vContextsOf(const Tree &T, const ElementSelector &Selector,
              W2vContexts Kind, const ExtractionConfig &Extraction,
              PathTable &Table) {
  const StringInterner &SI = T.interner();
  std::vector<std::pair<ElementId, std::string>> Out;
  auto SelectedElement = [&](NodeId Leaf) -> ElementId {
    const Node &N = T.node(Leaf);
    if (N.Element == InvalidElement || !Selector(T.element(N.Element)))
      return InvalidElement;
    return N.Element;
  };

  if (Kind == W2vContexts::TokenStream) {
    const std::vector<NodeId> &Leaves = T.terminals();
    for (size_t I = 0; I < Leaves.size(); ++I) {
      ElementId E = SelectedElement(Leaves[I]);
      if (E == InvalidElement)
        continue;
      for (int Offset = -2; Offset <= 2; ++Offset) {
        if (Offset == 0)
          continue;
        long J = static_cast<long>(I) + Offset;
        if (J < 0 || J >= static_cast<long>(Leaves.size()))
          continue;
        NodeId Neighbor = Leaves[static_cast<size_t>(J)];
        // A neighbouring prediction target is itself unknown at test
        // time; its node kind is all the information available.
        std::string Value(SelectedElement(Neighbor) != InvalidElement
                              ? SI.str(T.node(Neighbor).Kind)
                              : SI.str(T.node(Neighbor).Value));
        // Original word2vec windows are position-free bags.
        Out.emplace_back(E, "tok|" + Value);
      }
    }
    return Out;
  }

  auto Contexts = extractPathContexts(T, Extraction, Table);
  for (const PathContext &Ctx : Contexts) {
    ElementId StartElem = SelectedElement(Ctx.Start);
    ElementId EndElem = Ctx.Semi ? InvalidElement : SelectedElement(Ctx.End);
    // Exactly one end must be a prediction target.
    if ((StartElem == InvalidElement) == (EndElem == InvalidElement))
      continue;
    ElementId E = StartElem != InvalidElement ? StartElem : EndElem;
    NodeId Other = StartElem != InvalidElement ? Ctx.End : Ctx.Start;
    std::string OtherValue(SI.str(endValue(T, Other)));
    std::string CtxString;
    if (Kind == W2vContexts::AstPaths) {
      const char *Dir = StartElem != InvalidElement ? ">" : "<";
      CtxString = Dir + Table.render(Ctx.Path, SI) + "|" + OtherValue;
    } else { // PathNeighbors: the same neighbours, path hidden.
      CtxString = "nb|" + OtherValue;
    }
    Out.emplace_back(E, CtxString);
  }
  return Out;
}

} // namespace

ExperimentResult
core::runW2vNameExperiment(const Corpus &Corpus,
                           const W2vExperimentOptions &Options) {
  ExperimentResult Result;
  Split S = splitByProject(Corpus, Options.TestFraction, Options.Seed);
  ElementSelector Selector = selectorFor(Task::VariableNames);
  const StringInterner &SI = *Corpus.Interner;
  PathTable Table;

  // Dense word/context vocabularies from the training split.
  std::unordered_map<Symbol, uint32_t> WordIds;
  std::vector<Symbol> Words;
  StringInterner CtxInterner;
  std::vector<w2v::Pair> Pairs;

  w2v::Sgns Model(Options.Sgns);
  {
    telemetry::TraceScope TrainPhase("train");
    {
      telemetry::TraceScope ExtractPhase("extract");
      for (size_t I : S.Train) {
        const Tree &T = Corpus.Files[I].Tree;
        auto Contexts = w2vContextsOf(T, Selector, Options.Contexts,
                                      Options.Extraction, Table);
        Result.TrainContexts += Contexts.size();
        for (const auto &[E, CtxString] : Contexts) {
          Symbol Name = T.element(E).Name;
          auto [It, Inserted] =
              WordIds.emplace(Name, static_cast<uint32_t>(Words.size()));
          if (Inserted)
            Words.push_back(Name);
          uint32_t Ctx = CtxInterner.intern(CtxString).index();
          Pairs.push_back({It->second, Ctx});
        }
      }
    }
    Model.train(Pairs, static_cast<uint32_t>(Words.size()),
                static_cast<uint32_t>(CtxInterner.size()));
    Result.TrainSeconds = TrainPhase.seconds();
  }
  Result.DistinctPaths = Table.size();

  // Evaluate: Eq. 4 over each test element's known contexts.
  telemetry::TraceScope EvalPhase("eval");
  telemetry::EventLog &Log = telemetry::EventLog::global();
  ml::AccuracyMeter Meter;
  for (size_t I : S.Test) {
    const Tree &T = Corpus.Files[I].Tree;
    auto Contexts = w2vContextsOf(T, Selector, Options.Contexts,
                                  Options.Extraction, Table);
    std::unordered_map<ElementId, std::vector<uint32_t>> ByElement;
    for (const auto &[E, CtxString] : Contexts) {
      Symbol Known = CtxInterner.lookup(CtxString);
      if (Known.isValid())
        ByElement[E].push_back(Known.index());
    }
    // Every selected element with occurrences is a prediction target,
    // whether or not any of its contexts were seen in training.
    for (ElementId E = 0; E < T.elements().size(); ++E) {
      if (!Selector(T.element(E)) || T.occurrences(E).empty())
        continue;
      std::string Gold(SI.str(T.element(E).Name));
      auto It = ByElement.find(E);
      if (It == ByElement.end()) {
        Meter.addWrong();
        continue;
      }
      uint32_t Predicted = Model.predict(It->second);
      std::string PredStr(Predicted == UINT32_MAX
                              ? std::string_view()
                              : SI.str(Words[Predicted]));
      Meter.add(PredStr, Gold);
      // Misprediction provenance for Eq. 4: each contributing context's
      // summed dot product. Contexts are strings here (not PathIds), so
      // the records carry a "context" field instead of "path".
      if (Log.enabled() && Predicted != UINT32_MAX && PredStr != Gold) {
        auto Contribs = Model.explain(Predicted, It->second, 0);
        double Score = 0;
        for (const auto &[Ctx, S] : Contribs)
          Score += S;
        using telemetry::jsonNumber;
        using telemetry::jsonString;
        Log.record("prediction",
                   {{"task", jsonString("w2v")},
                    {"gold", jsonString(Gold)},
                    {"predicted", jsonString(PredStr)},
                    {"correct", "false"},
                    {"score", jsonNumber(Score)},
                    {"paths", std::to_string(Contribs.size())}});
        if (Contribs.size() > 5)
          Contribs.resize(5);
        for (const auto &[Ctx, S] : Contribs)
          Log.record(
              "attribution",
              {{"task", jsonString("w2v")},
               {"predicted", jsonString(PredStr)},
               {"context",
                jsonString(CtxInterner.str(Symbol::fromIndex(Ctx)))},
               {"score", jsonNumber(S)}});
      }
    }
  }
  Result.Accuracy = Meter.accuracy();
  Result.Predictions = Meter.total();
  telemetry::MetricsRegistry::global()
      .gauge("eval.w2v.accuracy")
      .set(Result.Accuracy);
  return Result;
}

//===----------------------------------------------------------------------===//
// Prediction provenance
//===----------------------------------------------------------------------===//

void core::logPredictionProvenance(std::string_view Task,
                                   const StringInterner &SI,
                                   const PathTable &Table,
                                   std::string_view Gold,
                                   std::string_view Predicted,
                                   const crf::NodeExplanation &Ex) {
  telemetry::EventLog &Log = telemetry::EventLog::global();
  if (!Log.enabled())
    return;
  using telemetry::jsonNumber;
  using telemetry::jsonString;
  Log.record("prediction", {{"task", jsonString(Task)},
                            {"gold", jsonString(Gold)},
                            {"predicted", jsonString(Predicted)},
                            {"correct", Gold == Predicted ? "true" : "false"},
                            {"score", jsonNumber(Ex.Total)},
                            {"bias", jsonNumber(Ex.Bias)},
                            {"paths", std::to_string(Ex.Paths.size())}});
  for (const crf::Attribution &A : Ex.Paths)
    Log.record(
        "attribution",
        {{"task", jsonString(Task)},
         {"predicted", jsonString(Predicted)},
         {"path",
          jsonString(A.Path != InvalidPath ? Table.render(A.Path, SI)
                                           : std::string())},
         {"neighbor",
          jsonString(A.Neighbor.isValid() ? SI.str(A.Neighbor) : "")},
         {"unary", A.Unary ? "true" : "false"},
         {"score", jsonNumber(A.Score)},
         {"weight", jsonNumber(A.Weight)},
         {"vote", jsonNumber(A.Vote)}});
}

std::vector<ExplainedPrediction>
core::explainCrfPredictions(const Corpus &Corpus, Task Task,
                            const CrfExperimentOptions &Options, int TopK,
                            size_t MaxNodes) {
  Split S = splitByProject(Corpus, Options.TestFraction, Options.Seed);
  PathTable Table;
  CrfModel Model(Options.Crf);
  std::vector<CrfGraph> TestGraphs;

  if (Task == Task::FullTypes) {
    {
      telemetry::TraceScope TrainPhase("train");
      Model.train(buildTypeGraphs(Corpus, S.Train, Options, Table, nullptr));
    }
    TestGraphs = buildTypeGraphs(Corpus, S.Test, Options, Table, nullptr);
  } else {
    ElementSelector Selector = selectorFor(Task);
    Rng Sampler = Rng::forStream(Options.Seed, "downsample");
    auto Assemble = [&](const std::vector<size_t> &Indices, bool Sample) {
      auto Extracted = extractCorpusContexts(Corpus, Indices, Options, Table);
      std::vector<CrfGraph> Graphs;
      Graphs.reserve(Indices.size());
      for (size_t I = 0; I < Indices.size(); ++I) {
        const Tree &T = Corpus.Files[Indices[I]].Tree;
        if (Sample)
          downsample(Extracted[I].Contexts, Options.DownsampleP, Sampler);
        CrfGraph G = buildGraph(T, Extracted[I].Contexts, Selector);
        if (Options.TriContexts)
          addTriFactors(G, T, Extracted[I].Tris, Selector, *Corpus.Interner);
        Graphs.push_back(std::move(G));
      }
      return Graphs;
    };
    {
      telemetry::TraceScope TrainPhase("train");
      Model.train(Assemble(S.Train, /*Sample=*/true));
    }
    TestGraphs = Assemble(S.Test, /*Sample=*/false);
  }

  telemetry::TraceScope ExplainPhase("explain");
  const StringInterner &SI = *Corpus.Interner;
  const char *Tag = taskToken(Task);
  std::vector<ExplainedPrediction> Out;
  std::vector<std::vector<Symbol>> Preds =
      Model.predictBatch(TestGraphs, Options.Threads);
  for (size_t I = 0; I < TestGraphs.size() && Out.size() < MaxNodes; ++I) {
    const CrfGraph &G = TestGraphs[I];
    for (uint32_t N : G.Unknowns) {
      if (Out.size() >= MaxNodes)
        break;
      Symbol Pred = Preds[I][N];
      if (!Pred.isValid())
        continue; // No candidates: nothing to attribute.
      crf::NodeExplanation Ex = Model.explain(G, N, Pred, Preds[I], TopK);
      ExplainedPrediction E;
      E.Gold = SI.str(G.Nodes[N].Gold);
      E.Predicted = SI.str(Pred);
      E.Correct = E.Gold == E.Predicted;
      E.Score = Ex.Total;
      E.Bias = Ex.Bias;
      E.Paths.reserve(Ex.Paths.size());
      for (const crf::Attribution &A : Ex.Paths) {
        ExplainedPrediction::PathLine L;
        L.Path = A.Path != InvalidPath ? Table.render(A.Path, SI) : "";
        L.Neighbor = A.Neighbor.isValid() ? SI.str(A.Neighbor) : "";
        L.Unary = A.Unary;
        L.Score = A.Score;
        L.Weight = A.Weight;
        L.Vote = A.Vote;
        E.Paths.push_back(std::move(L));
      }
      logPredictionProvenance(Tag, SI, Table, E.Gold, E.Predicted, Ex);
      Out.push_back(std::move(E));
    }
  }
  return Out;
}

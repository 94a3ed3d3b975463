//===- Experiments.cpp - Experiment runners for the evaluation ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include "baselines/Baselines.h"
#include "ml/common/Metrics.h"
#include "support/EventLog.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <cassert>
#include <unordered_map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using namespace pigeon::crf;
using namespace pigeon::paths;

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

/// Keeps each context record with probability \p KeepP, drawing from
/// \p R once per record in order (no draws at all when KeepP >= 1).
void downsample(std::vector<ContextRecord> &Contexts, double KeepP, Rng &R) {
  if (KeepP >= 1.0)
    return;
  std::vector<ContextRecord> Kept;
  Kept.reserve(Contexts.size());
  for (const ContextRecord &Ctx : Contexts)
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

/// A CRF trained on the train split of a corpus, what the three CRF
/// drivers share. The train split extracts and interns first, and the
/// test split only after training, so train-side PathIds and symbols (and
/// with them every tie-break) do not depend on the test split.
class SplitRun {
public:
  SplitRun(const Corpus &Corpus, Task TaskKind,
           const CrfExperimentOptions &Options);

  /// The test split's graphs, interning into the run's table.
  std::vector<CrfGraph> testGraphs() { return graphsOf(S.Test, nullptr); }

  CrfModel Model;
  /// The route's artifact over the corpus' symbol space (Interner unset):
  /// its Table holds the paths of both splits, and for the name tasks
  /// its Files the records of the split being assembled.
  ContextsArtifact Art;
  ExperimentResult Result; ///< Training's share of the result.

private:
  const Corpus &C;
  const CrfExperimentOptions &Options;
  Split S;

  /// The CRF graphs of Corpus.Files[I] for every I in \p Indices: type
  /// graphs for FullTypes, otherwise the files' records (downsampled with
  /// \p Sampler when set) assembled by assembleGraphs(). Composite labels
  /// intern into the corpus interner. \p Contexts, when non-null, counts
  /// the contexts the graphs were built from.
  std::vector<CrfGraph> graphsOf(const std::vector<size_t> &Indices,
                                 Rng *Sampler, size_t *Contexts = nullptr);
};

SplitRun::SplitRun(const Corpus &Corpus, Task TaskKind,
                   const CrfExperimentOptions &Options)
    : Model(Options.Crf), C(Corpus), Options(Options),
      S(splitByProject(Corpus, Options.TestFraction, Options.Seed)) {
  Art.Lang = Corpus.Lang;
  Art.TaskKind = TaskKind;
  Art.Extraction = Options.Extraction;
  Art.Repr = Options.Repr;
  Art.TriContexts = Options.TriContexts;
  Rng Sampler = Rng::forStream(Options.Seed, "downsample");
  telemetry::TraceScope TrainPhase("train");
  std::vector<CrfGraph> TrainGraphs;
  {
    telemetry::TraceScope ExtractPhase("extract");
    TrainGraphs = graphsOf(S.Train, &Sampler, &Result.TrainContexts);
  }
  Model.train(TrainGraphs);
  Result.TrainSeconds = TrainPhase.seconds();
  Result.NumFeatures = Model.numFeatures();
  Result.DistinctPaths = Art.Table.size();
}

std::vector<CrfGraph> SplitRun::graphsOf(const std::vector<size_t> &Indices,
                                         Rng *Sampler, size_t *Contexts) {
  if (Art.TaskKind == Task::FullTypes)
    return buildTypeGraphs(C, Indices, Options, Art.Table, Contexts);
  Art.Files = buildFileRecords(C, Indices, Options, Art.Table);
  for (FileRecord &Rec : Art.Files) {
    if (Sampler)
      downsample(Rec.Contexts, Options.DownsampleP, *Sampler);
    if (Contexts)
      *Contexts += Rec.Contexts.size();
  }
  return assembleGraphs(Art, *C.Interner);
}

/// Trains on the train split and scores the test split with evalGraphs();
/// sets `eval.<task>.accuracy`. An empty test split scores 0.
ExperimentResult runCrfExperiment(const Corpus &Corpus, Task TaskKind,
                                  const CrfExperimentOptions &Options) {
  SplitRun Run(Corpus, TaskKind, Options);
  telemetry::TraceScope EvalPhase("eval");
  EvalStats Stats = evalGraphs(Run.Model, Run.testGraphs(), *Corpus.Interner,
                               Run.Art.Table, TaskKind, Options.Threads);
  ExperimentResult Result = Run.Result;
  Result.Predictions = Stats.Total;
  Result.Accuracy = Stats.Total == 0 ? 0.0 : Stats.accuracy();
  Result.SubtokenF1 = Stats.SubtokenF1;
  telemetry::MetricsRegistry::global()
      .gauge(std::string("eval.") + taskToken(TaskKind) + ".accuracy")
      .set(Result.Accuracy);
  return Result;
}

} // namespace

ExperimentResult
core::runCrfNameExperiment(const Corpus &Corpus, Task Task,
                           const CrfExperimentOptions &Options) {
  assert(Task != Task::FullTypes && "use runCrfTypeExperiment");
  return runCrfExperiment(Corpus, Task, Options);
}

ExperimentResult
core::runCrfTypeExperiment(const Corpus &Corpus,
                           const CrfExperimentOptions &Options) {
  return runCrfExperiment(Corpus, Task::FullTypes, Options);
}

std::vector<CrfGraph>
core::buildTypeGraphs(const Corpus &Corpus,
                      const std::vector<size_t> &Indices,
                      const CrfExperimentOptions &Options, PathTable &Table,
                      size_t *ContextCount) {
  // buildTypeGraph interns nothing, so a factor's path is the only id an
  // overlay can leave provisional.
  std::vector<std::vector<CrfGraph>> PerFile(Indices.size());
  std::vector<size_t> Contexts(Indices.size());
  std::vector<uint64_t> Costs;
  Costs.reserve(Indices.size());
  for (size_t I : Indices)
    Costs.push_back(Corpus.Files[I].Tree.size());
  extractSharded(
      Costs, Options.Threads, Table,
      [&](size_t I, PathTable &Into) {
        const Tree &T = Corpus.Files[Indices[I]].Tree;
        for (NodeId Target : T.typedNodes()) {
          if (!isApiTypeTarget(Corpus, T, Target))
            continue;
          auto Paths = extractPathsToNode(T, Target, Options.Extraction, Into);
          Contexts[I] += Paths.size();
          PerFile[I].push_back(buildTypeGraph(T, Target, Paths));
        }
      },
      [&](size_t I, const std::vector<PathId> &Map) {
        for (CrfGraph &G : PerFile[I])
          for (Factor &F : G.Factors)
            F.Path = finalPathId(F.Path, Map);
      });
  std::vector<CrfGraph> Graphs;
  for (size_t I = 0; I < Indices.size(); ++I) {
    for (CrfGraph &G : PerFile[I])
      Graphs.push_back(std::move(G));
    if (ContextCount)
      *ContextCount += Contexts[I];
  }
  return Graphs;
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

std::vector<ExplainedPrediction>
core::explainCrfPredictions(const Corpus &Corpus, Task Task,
                            const CrfExperimentOptions &Options, int TopK,
                            size_t MaxNodes) {
  SplitRun Run(Corpus, Task, Options);
  const CrfModel &Model = Run.Model;
  const PathTable &Table = Run.Art.Table;
  std::vector<CrfGraph> TestGraphs = Run.testGraphs();

  telemetry::TraceScope ExplainPhase("explain");
  const StringInterner &SI = *Corpus.Interner;
  const char *Tag = taskToken(Task);
  std::vector<ExplainedPrediction> Out;
  std::vector<crf::Inference> Preds =
      Model.predictBatch(TestGraphs, /*K=*/0, Options.Threads);
  for (size_t I = 0; I < TestGraphs.size() && Out.size() < MaxNodes; ++I) {
    const CrfGraph &G = TestGraphs[I];
    for (uint32_t N : G.Unknowns) {
      if (Out.size() >= MaxNodes)
        break;
      Symbol Pred = Preds[I].Assignment[N];
      if (!Pred.isValid())
        continue; // No candidates: nothing to attribute.
      crf::NodeExplanation Ex =
          Model.explain(G, N, Pred, Preds[I].Assignment, TopK);
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

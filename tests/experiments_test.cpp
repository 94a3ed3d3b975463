//===- experiments_test.cpp - Integration tests for the pipeline -----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests: generate a corpus, parse it, train models, and check
/// that the paper's qualitative orderings hold (AST paths beat the
/// baselines; the type task beats the String baseline; etc.).
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include "core/ContextsIO.h"
#include "core/Predict.h"
#include "lang/js/JsParser.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace pigeon;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

/// Small-but-meaningful corpus.
Corpus makeCorpus(Language Lang) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, /*Seed=*/11);
  Spec.NumProjects = 40;
  return parseCorpus(datagen::generateCorpus(Spec), Lang);
}

/// makeCorpus(), cached per language across tests.
const Corpus &corpusFor(Language Lang) {
  static std::map<Language, Corpus> Cache;
  auto It = Cache.find(Lang);
  if (It == Cache.end())
    It = Cache.emplace(Lang, makeCorpus(Lang)).first;
  return It->second;
}

CrfExperimentOptions defaultOptions() {
  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.Crf.Epochs = 4;
  return Options;
}

TEST(PipelineTest, ParsesWholeCorpus) {
  const Corpus &C = corpusFor(Language::JavaScript);
  EXPECT_EQ(C.ParseFailures, 0u);
  EXPECT_EQ(C.Files.size(), 640u);
  EXPECT_EQ(C.numProjects(), 40u);
  EXPECT_GT(C.SourceBytes, 10000u);
}

TEST(PipelineTest, SplitSeparatesProjects) {
  const Corpus &C = corpusFor(Language::JavaScript);
  Split S = splitByProject(C, 0.25, 42);
  EXPECT_FALSE(S.Train.empty());
  EXPECT_FALSE(S.Test.empty());
  EXPECT_EQ(S.Train.size() + S.Test.size(), C.Files.size());
  std::set<std::string> TrainProjects, TestProjects;
  for (size_t I : S.Train)
    TrainProjects.insert(C.Files[I].Project);
  for (size_t I : S.Test)
    TestProjects.insert(C.Files[I].Project);
  for (const std::string &P : TestProjects)
    EXPECT_FALSE(TrainProjects.count(P)) << "project leaked: " << P;
}

TEST(PipelineTest, SplitIsDeterministic) {
  const Corpus &C = corpusFor(Language::JavaScript);
  Split A = splitByProject(C, 0.25, 42);
  Split B = splitByProject(C, 0.25, 42);
  EXPECT_EQ(A.Train, B.Train);
  EXPECT_EQ(A.Test, B.Test);
  Split Other = splitByProject(C, 0.25, 43);
  EXPECT_NE(A.Test, Other.Test);
}

TEST(ExperimentsVarNames, AstPathsLearnSomething) {
  ExperimentResult R = runCrfNameExperiment(
      corpusFor(Language::JavaScript), Task::VariableNames,
      defaultOptions());
  EXPECT_GT(R.Predictions, 50u);
  EXPECT_GT(R.Accuracy, 0.45) << "paths should predict most modal names";
  EXPECT_GT(R.NumFeatures, 100u);
  EXPECT_GT(R.DistinctPaths, 50u);
}

TEST(ExperimentsVarNames, PathsBeatNoPaths) {
  const Corpus &C = corpusFor(Language::JavaScript);
  CrfExperimentOptions Options = defaultOptions();
  ExperimentResult Paths =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  Options.Repr = Representation::NoPaths;
  ExperimentResult NoPaths =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  EXPECT_GT(Paths.Accuracy, NoPaths.Accuracy)
      << "paths=" << Paths.Accuracy << " nopaths=" << NoPaths.Accuracy;
}

TEST(ExperimentsVarNames, PathsBeatIntraStatement) {
  const Corpus &C = corpusFor(Language::JavaScript);
  CrfExperimentOptions Options = defaultOptions();
  ExperimentResult Paths =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  Options.Repr = Representation::IntraStatement;
  ExperimentResult Intra =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  EXPECT_GT(Paths.Accuracy, Intra.Accuracy)
      << "paths=" << Paths.Accuracy << " intra=" << Intra.Accuracy;
}

TEST(ExperimentsVarNames, PathsBeatNgramsOnJava) {
  const Corpus &C = corpusFor(Language::Java);
  CrfExperimentOptions Options = defaultOptions();
  Options.Extraction = tunedExtraction(Language::Java, Task::VariableNames);
  ExperimentResult Paths =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  Options.Repr = Representation::Ngrams;
  ExperimentResult Ngrams =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  EXPECT_GT(Paths.Accuracy, Ngrams.Accuracy)
      << "paths=" << Paths.Accuracy << " ngrams=" << Ngrams.Accuracy;
}

TEST(ExperimentsVarNames, RuleBasedIsWeakOnJava) {
  const Corpus &C = corpusFor(Language::Java);
  ExperimentResult Rules = runRuleBasedJava(C, 0.25, 42);
  CrfExperimentOptions Options = defaultOptions();
  Options.Extraction = tunedExtraction(Language::Java, Task::VariableNames);
  ExperimentResult Paths =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  EXPECT_GT(Rules.Predictions, 20u);
  EXPECT_GT(Paths.Accuracy, Rules.Accuracy)
      << "paths=" << Paths.Accuracy << " rules=" << Rules.Accuracy;
}

TEST(ExperimentsVarNames, DownsamplingDegradesGracefully) {
  const Corpus &C = corpusFor(Language::JavaScript);
  CrfExperimentOptions Options = defaultOptions();
  ExperimentResult Full =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  Options.DownsampleP = 0.5;
  ExperimentResult Half =
      runCrfNameExperiment(C, Task::VariableNames, Options);
  EXPECT_LT(Half.TrainContexts, Full.TrainContexts);
  // Half the contexts must not collapse accuracy (Fig. 11's flatness).
  EXPECT_GT(Half.Accuracy, Full.Accuracy - 0.15);
}

TEST(ExperimentsMethodNames, PathsPredictMethodNames) {
  ExperimentResult R = runCrfNameExperiment(
      corpusFor(Language::JavaScript), Task::MethodNames, defaultOptions());
  EXPECT_GT(R.Predictions, 20u);
  EXPECT_GT(R.Accuracy, 0.3);
  EXPECT_GT(R.SubtokenF1, R.Accuracy)
      << "sub-token F1 credits partial matches";
}

TEST(ExperimentsMethodNames, SubtokenBaselineRunsOnJava) {
  const Corpus &C = corpusFor(Language::Java);
  ExperimentResult Sub = runSubtokenMethodNamer(C, 0.25, 42);
  EXPECT_GT(Sub.Predictions, 20u);
  ExperimentResult Paths =
      runCrfNameExperiment(C, Task::MethodNames, defaultOptions());
  EXPECT_GT(Paths.Accuracy, Sub.Accuracy)
      << "paths=" << Paths.Accuracy << " subtoken=" << Sub.Accuracy;
}

TEST(ExperimentsTypes, TypePredictionBeatsStringBaseline) {
  const Corpus &C = corpusFor(Language::Java);
  CrfExperimentOptions Options = defaultOptions();
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 1;
  ExperimentResult Types = runCrfTypeExperiment(C, Options);
  ExperimentResult Naive = runStringTypeBaseline(C, 0.25, 42);
  EXPECT_GT(Types.Predictions, 100u);
  EXPECT_GT(Types.Accuracy, 0.5);
  EXPECT_GT(Types.Accuracy, Naive.Accuracy + 0.2)
      << "types=" << Types.Accuracy << " naive=" << Naive.Accuracy;
  EXPECT_GT(Naive.Accuracy, 0.05);
}

TEST(ExperimentsW2v, PathsBeatTokenStream) {
  const Corpus &C = corpusFor(Language::JavaScript);
  W2vExperimentOptions Options;
  Options.Sgns.Epochs = 4;
  ExperimentResult Paths = runW2vNameExperiment(C, Options);
  Options.Contexts = W2vContexts::TokenStream;
  ExperimentResult Tokens = runW2vNameExperiment(C, Options);
  Options.Contexts = W2vContexts::PathNeighbors;
  ExperimentResult Neighbors = runW2vNameExperiment(C, Options);
  EXPECT_GT(Paths.Accuracy, Tokens.Accuracy)
      << "paths=" << Paths.Accuracy << " tokens=" << Tokens.Accuracy;
  EXPECT_GT(Paths.Accuracy, Neighbors.Accuracy)
      << "paths=" << Paths.Accuracy << " nb=" << Neighbors.Accuracy;
}

TEST(PipelineTest, ZeroTestFractionYieldsEmptyTestSplit) {
  const Corpus &C = corpusFor(Language::JavaScript);
  for (double Fraction : {0.0, -0.5}) {
    Split S = splitByProject(C, Fraction, 42);
    EXPECT_TRUE(S.Test.empty()) << "fraction " << Fraction;
    EXPECT_EQ(S.Train.size(), C.Files.size()) << "fraction " << Fraction;
  }
}

TEST(PipelineTest, SplitEdgeCasesOfTinyCorpora) {
  // Empty corpus: both splits empty, any fraction.
  Corpus Empty;
  Empty.Interner = std::make_unique<StringInterner>();
  for (double Fraction : {0.0, 0.25, 1.0}) {
    Split S = splitByProject(Empty, Fraction, 42);
    EXPECT_TRUE(S.Train.empty());
    EXPECT_TRUE(S.Test.empty());
  }

  // splitByProject only reads ParsedFile::Project, but Tree is only
  // constructible through a frontend — parse a trivial file per entry.
  auto MakeCorpus = [](const std::vector<std::string> &Projects) {
    Corpus C;
    C.Interner = std::make_unique<StringInterner>();
    for (size_t I = 0; I < Projects.size(); ++I) {
      lang::ParseResult R =
          js::parse("function f() { var a = 1; }", *C.Interner);
      C.Files.push_back(
          {Projects[I], "f" + std::to_string(I), std::move(*R.Tree)});
    }
    return C;
  };

  // One project: a positive fraction may take it (nothing else to keep
  // for training), but zero must leave it in train.
  Corpus One = MakeCorpus({"p0", "p0"});
  Split Zero = splitByProject(One, 0.0, 42);
  EXPECT_EQ(Zero.Train.size(), 2u);
  EXPECT_TRUE(Zero.Test.empty());
  Split Quarter = splitByProject(One, 0.25, 42);
  EXPECT_EQ(Quarter.Train.size() + Quarter.Test.size(), 2u);

  // Two projects, positive fraction: at least one project in test and at
  // least one left for training.
  Corpus Two = MakeCorpus({"p0", "p1"});
  Split S = splitByProject(Two, 0.25, 42);
  EXPECT_EQ(S.Train.size(), 1u);
  EXPECT_EQ(S.Test.size(), 1u);
}

TEST(PipelineTest, MetricSafeReasonSanitizesDiagnostics) {
  EXPECT_EQ(metricSafeReason("no tree"), "no_tree");
  EXPECT_EQ(metricSafeReason("1:5: unexpected token ')'"),
            "1_5_unexpected_token");
  EXPECT_EQ(metricSafeReason("Already-Safe.reason-1"), "already-safe.reason-1");
  EXPECT_EQ(metricSafeReason("  \"quoted\"  "), "quoted");
  EXPECT_EQ(metricSafeReason(""), "unknown");
  EXPECT_EQ(metricSafeReason("!!!"), "unknown");
  // Long raw diagnostics are truncated to a bounded metric name.
  std::string Long(500, 'x');
  EXPECT_LE(metricSafeReason(Long).size(), 48u);
}

TEST(PipelineTest, ParseFailureReasonCounterBudgetIsGlobal) {
  auto &Reg = telemetry::MetricsRegistry::global();
  // Flood with distinct reasons across *several* calls: the per-process
  // budget must cap the distinct counters regardless of call boundaries.
  size_t Before = Reg.numCounters();
  for (int Call = 0; Call < 4; ++Call)
    for (int I = 0; I < 10; ++I)
      recordParseFailureReason("flooded reason #" + std::to_string(Call) +
                               "." + std::to_string(I));
  size_t Grown = Reg.numCounters() - Before;
  // At most the 16-reason budget plus the "other" overflow counter, no
  // matter how many distinct reasons were reported.
  EXPECT_LE(Grown, 17u);
  // And the cap stays in force for later calls.
  size_t Mid = Reg.numCounters();
  for (int I = 0; I < 10; ++I)
    recordParseFailureReason("late flood " + std::to_string(I));
  EXPECT_LE(Reg.numCounters() - Mid, 1u);
}

TEST(Qualitative, Fig1aTopCandidatesAreFlagNames) {
  // Training takes over the corpus' interner: use a corpus of its own.
  Corpus C = makeCorpus(Language::JavaScript);
  ModelBundle Model = trainBundle(
      buildContextsArtifact(C, Task::VariableNames, defaultOptions()));
  Prediction P = predictSource(
      Model,
      "function waitUntilReady() { var d = false; while (!d) { if "
      "(someCondition()) { d = true; } } return d; }",
      /*K=*/5);
  ASSERT_TRUE(P.Parse.ok());
  ASSERT_FALSE(P.Elements.empty());
  // Find element `d` and check the prediction is a flag-style name.
  size_t Seen = 0;
  for (const ElementPrediction &E : P.Elements) {
    if (P.str(E.Name) != "d")
      continue;
    ++Seen;
    ASSERT_TRUE(E.Label.isValid());
    EXPECT_EQ(P.str(E.Label), "done");
    ASSERT_GE(E.Candidates.size(), 2u);
    EXPECT_EQ(P.str(E.Candidates[0].first), "done");
  }
  EXPECT_EQ(Seen, 1u);
}

} // namespace

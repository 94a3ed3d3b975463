//===- contexts_test.cpp - Unit tests for the contexts artifact ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
// The contract under test: a `pigeon.contexts.v1` artifact round-trips
// bit-exactly, its records rebuild CRF graphs identical to tree-based
// assembly, and extraction into an artifact is invariant under the worker
// thread count.
//
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"
#include "core/ModelIO.h"

#include "datagen/Sketch.h"
#include "support/SubToken.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

Corpus makeCorpus(uint64_t Seed = 11, int Projects = 5) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Language::JavaScript, Seed);
  Spec.NumProjects = Projects;
  std::vector<datagen::SourceFile> Sources = datagen::generateCorpus(Spec);
  Corpus C = parseCorpus(Sources, Language::JavaScript);
  EXPECT_GT(C.Files.size(), 0u);
  return C;
}

CrfExperimentOptions varsOptions(bool Tri = false) {
  CrfExperimentOptions Options;
  Options.Extraction =
      tunedExtraction(Language::JavaScript, Task::VariableNames);
  Options.TriContexts = Tri;
  return Options;
}

void expectArtifactsEqual(const ContextsArtifact &A,
                          const ContextsArtifact &B) {
  EXPECT_EQ(A.Lang, B.Lang);
  EXPECT_EQ(A.TaskKind, B.TaskKind);
  EXPECT_EQ(A.Repr, B.Repr);
  EXPECT_EQ(A.TriContexts, B.TriContexts);
  EXPECT_EQ(A.Extraction.MaxLength, B.Extraction.MaxLength);
  EXPECT_EQ(A.Extraction.MaxWidth, B.Extraction.MaxWidth);
  EXPECT_EQ(A.Extraction.Abst, B.Extraction.Abst);
  EXPECT_EQ(A.Extraction.IncludeSemiPaths, B.Extraction.IncludeSemiPaths);

  ASSERT_EQ(A.Interner->size(), B.Interner->size());
  for (uint32_t I = 1; I < A.Interner->size(); ++I)
    EXPECT_EQ(A.Interner->str(Symbol::fromIndex(I)),
              B.Interner->str(Symbol::fromIndex(I)));

  ASSERT_EQ(A.Table.size(), B.Table.size());
  for (paths::PathId Id = 1; Id <= A.Table.size(); ++Id) {
    auto ABytes = A.Table.bytes(Id);
    auto BBytes = B.Table.bytes(Id);
    ASSERT_EQ(ABytes.size(), BBytes.size()) << "path " << Id;
    EXPECT_TRUE(std::equal(ABytes.begin(), ABytes.end(), BBytes.begin()))
        << "path " << Id;
  }

  ASSERT_EQ(A.Files.size(), B.Files.size());
  for (size_t F = 0; F < A.Files.size(); ++F) {
    const FileRecord &FA = A.Files[F];
    const FileRecord &FB = B.Files[F];
    EXPECT_EQ(FA.Project, FB.Project);
    EXPECT_EQ(FA.FileName, FB.FileName);
    ASSERT_EQ(FA.Elements.size(), FB.Elements.size());
    for (size_t E = 0; E < FA.Elements.size(); ++E) {
      EXPECT_EQ(FA.Elements[E].Name, FB.Elements[E].Name);
      EXPECT_EQ(FA.Elements[E].Kind, FB.Elements[E].Kind);
      EXPECT_EQ(FA.Elements[E].Predictable, FB.Elements[E].Predictable);
    }
    ASSERT_EQ(FA.Contexts.size(), FB.Contexts.size());
    for (size_t I = 0; I < FA.Contexts.size(); ++I) {
      const crf::ContextRecord &CA = FA.Contexts[I];
      const crf::ContextRecord &CB = FB.Contexts[I];
      EXPECT_EQ(CA.Path, CB.Path);
      EXPECT_EQ(CA.StartElem, CB.StartElem);
      EXPECT_EQ(CA.StartValue, CB.StartValue);
      EXPECT_EQ(CA.EndElem, CB.EndElem);
      EXPECT_EQ(CA.EndValue, CB.EndValue);
      EXPECT_EQ(CA.Semi, CB.Semi);
    }
    ASSERT_EQ(FA.Tris.size(), FB.Tris.size());
    for (size_t I = 0; I < FA.Tris.size(); ++I) {
      EXPECT_EQ(FA.Tris[I].Path, FB.Tris[I].Path);
      for (int E = 0; E < 3; ++E) {
        EXPECT_EQ(FA.Tris[I].Elem[E], FB.Tris[I].Elem[E]);
        EXPECT_EQ(FA.Tris[I].Value[E], FB.Tris[I].Value[E]);
      }
    }
  }
}

void expectGraphsEqual(const crf::CrfGraph &A, const crf::CrfGraph &B) {
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size());
  for (size_t N = 0; N < A.Nodes.size(); ++N) {
    EXPECT_EQ(A.Nodes[N].Gold, B.Nodes[N].Gold) << "node " << N;
    EXPECT_EQ(A.Nodes[N].Known, B.Nodes[N].Known) << "node " << N;
    EXPECT_EQ(A.Nodes[N].Element, B.Nodes[N].Element) << "node " << N;
  }
  ASSERT_EQ(A.Factors.size(), B.Factors.size());
  for (size_t F = 0; F < A.Factors.size(); ++F) {
    EXPECT_EQ(A.Factors[F].A, B.Factors[F].A) << "factor " << F;
    EXPECT_EQ(A.Factors[F].B, B.Factors[F].B) << "factor " << F;
    EXPECT_EQ(A.Factors[F].Path, B.Factors[F].Path) << "factor " << F;
    EXPECT_EQ(A.Factors[F].Unary, B.Factors[F].Unary) << "factor " << F;
  }
  EXPECT_EQ(A.Unknowns, B.Unknowns);
}

TEST(ContextsArtifact, RoundTripsExactly) {
  Corpus C = makeCorpus();
  ContextsArtifact Original =
      buildContextsArtifact(C, Task::VariableNames, varsOptions(/*Tri=*/true));
  ASSERT_GT(Original.Table.size(), 0u);

  std::stringstream Buffer;
  saveContexts(Buffer, Original);
  std::unique_ptr<ContextsArtifact> Restored = loadContexts(Buffer);
  ASSERT_NE(Restored, nullptr);
  expectArtifactsEqual(Original, *Restored);
}

TEST(ContextsArtifact, RecordGraphsMatchTreeGraphs) {
  Corpus C = makeCorpus();
  CrfExperimentOptions Options = varsOptions();
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, Options);

  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  size_t GraphsWithUnknowns = 0;
  for (size_t F = 0; F < C.Files.size(); ++F) {
    // Re-extracting against the artifact's (fully populated) table hits
    // only existing entries, so PathIds line up with the records.
    auto Contexts = paths::extractPathContexts(C.Files[F].Tree,
                                               Options.Extraction, Art.Table);
    crf::CrfGraph FromTree =
        crf::buildGraph(C.Files[F].Tree, Contexts, Selector);
    crf::CrfGraph FromRecord = buildGraphFromRecord(Art.Files[F], Selector);
    expectGraphsEqual(FromTree, FromRecord);
    if (!FromTree.Unknowns.empty())
      ++GraphsWithUnknowns;
  }
  EXPECT_GT(GraphsWithUnknowns, 0u); // The corpus exercised the selector.
}

TEST(ContextsArtifact, RecordTriFactorsMatchTreeTriFactors) {
  Corpus C = makeCorpus();
  CrfExperimentOptions Options = varsOptions(/*Tri=*/true);
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, Options);

  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  size_t TriFactors = 0;
  for (size_t F = 0; F < C.Files.size(); ++F) {
    auto Contexts = paths::extractPathContexts(C.Files[F].Tree,
                                               Options.Extraction, Art.Table);
    auto Tris = paths::extractTriContexts(C.Files[F].Tree, Options.Extraction,
                                          Art.Table);
    crf::CrfGraph FromTree =
        crf::buildGraph(C.Files[F].Tree, Contexts, Selector);
    crf::addTriFactors(FromTree, C.Files[F].Tree, Tris, Selector,
                       *Art.Interner);
    crf::CrfGraph FromRecord = buildGraphFromRecord(Art.Files[F], Selector);
    crf::addTriFactors(FromRecord, Art.Files[F].Elements, Art.Files[F].Tris,
                       Selector, *Art.Interner);
    expectGraphsEqual(FromTree, FromRecord);
    TriFactors += FromTree.Factors.size();
  }
  EXPECT_GT(TriFactors, 0u);
}

TEST(ContextsArtifact, SerializationIsThreadCountInvariant) {
  std::string Streams[3];
  size_t ThreadCounts[3] = {1, 2, 4};
  for (int I = 0; I < 3; ++I) {
    Corpus C = makeCorpus();
    CrfExperimentOptions Options = varsOptions(/*Tri=*/true);
    Options.Threads = ThreadCounts[I];
    ContextsArtifact Art =
        buildContextsArtifact(C, Task::VariableNames, Options);
    std::stringstream Buffer;
    saveContexts(Buffer, Art);
    Streams[I] = Buffer.str();
  }
  EXPECT_EQ(Streams[0], Streams[1]);
  EXPECT_EQ(Streams[0], Streams[2]);
}

TEST(ContextsArtifact, RebaseIntoEmptySpaceIsFaithful) {
  Corpus C = makeCorpus();
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, varsOptions());

  // Snapshot rendered paths and element names in the artifact's space.
  std::vector<std::string> PathsBefore;
  for (paths::PathId Id = 1; Id <= Art.Table.size(); ++Id)
    PathsBefore.push_back(Art.Table.render(Id, *Art.Interner));
  std::string FirstName;
  for (const FileRecord &Rec : Art.Files)
    if (!Rec.Elements.empty()) {
      FirstName = Art.Interner->str(Rec.Elements[0].Name);
      break;
    }

  StringInterner TargetSI;
  TargetSI.intern("alreadyThere"); // Offsets every mapped symbol.
  paths::PathTable TargetTable;
  ASSERT_TRUE(rebaseArtifact(Art, TargetSI, TargetTable));

  ASSERT_EQ(TargetTable.size(), PathsBefore.size());
  for (paths::PathId Id = 1; Id <= TargetTable.size(); ++Id)
    EXPECT_EQ(TargetTable.render(Id, TargetSI), PathsBefore[Id - 1]);
  bool Found = false;
  for (const FileRecord &Rec : Art.Files)
    if (!Rec.Elements.empty()) {
      EXPECT_EQ(TargetSI.str(Rec.Elements[0].Name), FirstName);
      Found = true;
      break;
    }
  EXPECT_TRUE(Found);
}

TEST(ContextsIO, RejectsGarbage) {
  std::stringstream Buffer("not a contexts artifact");
  EXPECT_EQ(loadContexts(Buffer), nullptr);
}

TEST(ContextsIO, RejectsWrongMagic) {
  Corpus C = makeCorpus(3, 2);
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, varsOptions());
  std::stringstream Buffer;
  saveContexts(Buffer, Art);
  std::string Bytes = Buffer.str();
  Bytes[0] ^= 0x5A;
  std::stringstream Corrupted(Bytes);
  EXPECT_EQ(loadContexts(Corrupted), nullptr);
}

TEST(ContextsIO, RejectsVersionMismatch) {
  Corpus C = makeCorpus(3, 2);
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, varsOptions());
  std::stringstream Buffer;
  saveContexts(Buffer, Art);
  std::string Bytes = Buffer.str();
  Bytes[4] ^= 0x01; // Low byte of the little-endian version field.
  std::stringstream Corrupted(Bytes);
  EXPECT_EQ(loadContexts(Corrupted), nullptr);
}

TEST(ContextsIO, RejectsTruncationAtEveryQuarter) {
  Corpus C = makeCorpus(3, 2);
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, varsOptions(/*Tri=*/true));
  std::stringstream Buffer;
  saveContexts(Buffer, Art);
  std::string Bytes = Buffer.str();
  for (size_t Num = 1; Num <= 3; ++Num) {
    std::stringstream Truncated(Bytes.substr(0, Bytes.size() * Num / 4));
    EXPECT_EQ(loadContexts(Truncated), nullptr) << "quarter " << Num;
  }
}

//===----------------------------------------------------------------------===//
// Evaluation stats
//===----------------------------------------------------------------------===//

TEST(EvalStats, AccuracyOfNothingIsNaNNotZero) {
  // Regression: a 0-of-0 evaluation used to present as accuracy 0.0 and
  // exit 0, feeding a fake score into gauges and the bench trajectory.
  EvalStats Empty;
  EXPECT_TRUE(std::isnan(Empty.accuracy()));

  EvalStats Half;
  Half.Total = 4;
  Half.Correct = 2;
  EXPECT_DOUBLE_EQ(Half.accuracy(), 0.5);
}

TEST(EvalStats, EvalArtifactOnEmptyArtifactReportsZeroTotal) {
  ModelBundle Bundle;
  Bundle.Interner = std::make_unique<StringInterner>();

  ContextsArtifact Empty;
  Empty.Interner = std::make_unique<StringInterner>();
  EvalStats Stats = evalArtifact(Bundle, Empty);
  EXPECT_EQ(Stats.Total, 0u);
  EXPECT_EQ(Stats.Correct, 0u);
  EXPECT_TRUE(std::isnan(Stats.accuracy()));
}

TEST(EvalStats, EvalArtifactMatchesManualTally) {
  Corpus C = makeCorpus(13, 4);
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, varsOptions());

  // Train a model on the artifact's own graphs, then evaluate on the same
  // artifact: evalArtifact must agree with a hand-rolled tally under the
  // paper's name metric.
  ModelBundle Bundle;
  Bundle.Lang = Art.Lang;
  Bundle.TaskKind = Art.TaskKind;
  Bundle.Extraction = Art.Extraction;
  // Same wiring as trainFromArtifact: the bundle takes the artifact's
  // interner, so record symbols resolve in the bundle's space.
  Bundle.Interner = std::move(Art.Interner);

  crf::ElementSelector Selector = selectorFor(Art.TaskKind);
  std::vector<crf::CrfGraph> Graphs;
  for (const FileRecord &Rec : Art.Files)
    Graphs.push_back(buildGraphFromRecord(Rec, Selector));
  Bundle.Model.train(Graphs);

  EvalStats Stats = evalArtifact(Bundle, Art);
  ASSERT_GT(Stats.Total, 0u);
  EXPECT_LE(Stats.Correct, Stats.Total);

  std::vector<crf::Inference> Preds = Bundle.Model.predictBatch(Graphs, 0);
  size_t Total = 0, Correct = 0;
  const StringInterner &SI = *Bundle.Interner;
  for (size_t I = 0; I < Graphs.size(); ++I)
    for (uint32_t N : Graphs[I].Unknowns) {
      Symbol Pred = Preds[I].Assignment[N];
      ++Total;
      if (Pred.isValid() &&
          namesMatch(SI.str(Pred), SI.str(Graphs[I].Nodes[N].Gold)))
        ++Correct;
    }
  EXPECT_EQ(Stats.Total, Total);
  EXPECT_EQ(Stats.Correct, Correct);
}

TEST(EvalStats, NamesMatchUpToCaseAndUnderscores) {
  // The paper's §5.2 metric: predicting `total_count` for a gold
  // `totalCount` is right. Train where the accumulator is always
  // `total_count`, then score a file that calls it `totalCount`.
  auto Sum = [](const std::string &Name) {
    return "function sum(items) { var " + Name + " = 0; for (var i = 0; " +
           "i < items.length; i++) { " + Name + " += items[i]; } return " +
           Name + "; }";
  };
  std::vector<datagen::SourceFile> Sources;
  for (int I = 0; I < 4; ++I)
    Sources.push_back({"p" + std::to_string(I), "sum.js", Sum("total_count"),
                       {}});
  Corpus Train = parseCorpus(Sources, Language::JavaScript);
  ModelBundle Bundle = trainBundle(
      buildContextsArtifact(Train, Task::VariableNames, varsOptions()));

  Corpus Held = parseCorpus({{"q", "sum.js", Sum("totalCount"), {}}},
                            Language::JavaScript);
  ContextsArtifact Test =
      buildContextsArtifact(Held, Task::VariableNames, varsOptions());
  ASSERT_TRUE(rebaseArtifact(Test, *Bundle.Interner, Bundle.Table));

  // The model does answer `total_count` there.
  std::vector<crf::CrfGraph> Graphs = assembleGraphs(Test, *Bundle.Interner);
  ASSERT_EQ(Graphs.size(), 1u);
  std::vector<Symbol> Pred = Bundle.Model.predict(Graphs[0]);
  const StringInterner &SI = *Bundle.Interner;
  size_t Seen = 0;
  for (uint32_t N : Graphs[0].Unknowns) {
    if (SI.str(Graphs[0].Nodes[N].Gold) != "totalCount")
      continue;
    ++Seen;
    ASSERT_TRUE(Pred[N].isValid());
    EXPECT_EQ(SI.str(Pred[N]), "total_count");
  }
  ASSERT_EQ(Seen, 1u);

  EvalStats Stats = evalArtifact(Bundle, Test);
  EXPECT_EQ(Stats.Total, 3u); // items, totalCount, i
  EXPECT_EQ(Stats.Correct, 3u);
}

} // namespace

//===- modelio_test.cpp - Unit tests for whole-model persistence -----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "TempBundle.h"

#include "core/Experiments.h"
#include "core/ModelIO.h"

#include "lang/js/JsParser.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;
using pigeon::test::mapBytes;
using pigeon::test::remap;
using pigeon::test::bundleBytes;

namespace {

/// Trains a small JS variable-name bundle.
ModelBundle trainBundle() {
  ModelBundle Bundle;
  Bundle.Lang = Language::JavaScript;
  Bundle.Interner = std::make_unique<StringInterner>();
  Bundle.Extraction = tunedExtraction(Language::JavaScript,
                                      Task::VariableNames);
  Bundle.TaskKind = Task::VariableNames;

  datagen::CorpusSpec Spec =
      datagen::defaultSpec(Language::JavaScript, /*Seed=*/5);
  Spec.NumProjects = 6;
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  std::vector<crf::CrfGraph> Graphs;
  std::vector<std::optional<Tree>> Keep;
  for (const datagen::SourceFile &File : datagen::generateCorpus(Spec)) {
    lang::ParseResult R = js::parse(File.Text, *Bundle.Interner);
    EXPECT_TRUE(R.ok());
    Keep.push_back(std::move(R.Tree));
    auto Contexts = paths::extractPathContexts(
        *Keep.back(), Bundle.Extraction, Bundle.Table);
    Graphs.push_back(crf::buildGraph(*Keep.back(), Contexts, Selector));
  }
  Bundle.Model.train(Graphs);
  return Bundle;
}

std::map<std::string, std::string>
predictWith(ModelBundle &Bundle, const std::string &Source) {
  lang::ParseResult R = js::parse(Source, *Bundle.Interner);
  EXPECT_TRUE(R.Tree.has_value());
  auto Contexts = paths::extractPathContexts(*R.Tree, Bundle.Extraction,
                                             Bundle.Table);
  crf::CrfGraph G =
      crf::buildGraph(*R.Tree, Contexts, selectorFor(Bundle.TaskKind));
  std::vector<Symbol> Pred = Bundle.Model.predict(G);
  std::map<std::string, std::string> Out;
  for (uint32_t N : G.Unknowns)
    Out[std::string(Bundle.Interner->str(G.Nodes[N].Gold))] = std::string(
        Pred[N].isValid() ? Bundle.Interner->str(Pred[N])
                          : std::string_view());
  return Out;
}

const char *MinifiedFlag =
    "function f() { var a = false; while (!a) { if (check()) { a = true; } "
    "} return a; }";

TEST(ModelIO, RoundTripPredictsIdentically) {
  ModelBundle Original = trainBundle();
  auto Before = predictWith(Original, MinifiedFlag);
  ASSERT_FALSE(Before.empty());

  LoadDiag Diag;
  std::unique_ptr<ModelBundle> Restored = remap(Original, &Diag);
  ASSERT_NE(Restored, nullptr) << Diag.Error;
  EXPECT_EQ(Restored->Lang, Original.Lang);
  EXPECT_EQ(Restored->TaskKind, Original.TaskKind);
  EXPECT_EQ(Restored->Extraction.MaxLength, Original.Extraction.MaxLength);
  EXPECT_EQ(Restored->Extraction.MaxWidth, Original.Extraction.MaxWidth);
  EXPECT_EQ(Restored->Interner->size(), Original.Interner->size());
  EXPECT_EQ(Restored->Table.size(), Original.Table.size());
  EXPECT_EQ(Restored->Model.numFeatures(), Original.Model.numFeatures());

  auto After = predictWith(*Restored, MinifiedFlag);
  EXPECT_EQ(Before, After);
}

TEST(ModelIO, PredictsFlagNameAfterReload) {
  ModelBundle Original = trainBundle();
  std::unique_ptr<ModelBundle> Restored = remap(Original);
  ASSERT_NE(Restored, nullptr);
  auto Pred = predictWith(*Restored, MinifiedFlag);
  ASSERT_TRUE(Pred.count("a"));
  EXPECT_EQ(Pred["a"], "done");
}

TEST(ModelIO, NewStringsInternAfterSavedOnes) {
  ModelBundle Original = trainBundle();
  std::unique_ptr<ModelBundle> Restored = remap(Original);
  ASSERT_NE(Restored, nullptr);
  size_t Saved = Restored->Interner->size();
  Symbol Fresh = Restored->Interner->intern("neverSeenBefore123");
  EXPECT_EQ(Fresh.index(), Saved);
}

TEST(ModelIO, RejectsGarbage) {
  EXPECT_EQ(mapBytes("definitely not a model"), nullptr);
}

TEST(ModelIO, RejectsTruncation) {
  ModelBundle Original = trainBundle();
  std::string Bytes = bundleBytes(Original);
  // Chop in the middle of the string arena.
  EXPECT_EQ(mapBytes(Bytes.substr(0, Bytes.size() / 3)), nullptr);
}

TEST(ModelIO, RejectsWrongMagic) {
  ModelBundle Original = trainBundle();
  std::string Bytes = bundleBytes(Original);
  Bytes[0] ^= 0x5a;
  EXPECT_EQ(mapBytes(Bytes), nullptr);
}

TEST(ModelIO, RejectsVersionMismatch) {
  ModelBundle Original = trainBundle();
  std::string Bytes = bundleBytes(Original);
  // A bundle from a future (or past) format version must not load.
  Bytes[4] ^= 0x01; // Low byte of the little-endian version field.
  EXPECT_EQ(mapBytes(Bytes), nullptr);
}

TEST(ModelIO, RejectsTruncationAtEveryQuarter) {
  ModelBundle Original = trainBundle();
  std::string Bytes = bundleBytes(Original);
  for (size_t Num = 1; Num <= 3; ++Num)
    EXPECT_EQ(mapBytes(Bytes.substr(0, Bytes.size() * Num / 4)), nullptr)
        << "quarter " << Num;
}

//===----------------------------------------------------------------------===//
// Round-trip across every language × task header combination
//===----------------------------------------------------------------------===//

class ModelIOMatrix
    : public ::testing::TestWithParam<std::tuple<Language, Task>> {};

TEST_P(ModelIOMatrix, RoundTripsHeaderAndTables) {
  auto [Lang, TaskKind] = GetParam();

  ModelBundle Bundle;
  Bundle.Lang = Lang;
  Bundle.Interner = std::make_unique<StringInterner>();
  Bundle.Extraction = tunedExtraction(Lang, TaskKind);
  Bundle.TaskKind = TaskKind;

  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, /*Seed=*/9);
  Spec.NumProjects = 3;
  std::vector<datagen::SourceFile> Sources = datagen::generateCorpus(Spec);
  Corpus C = parseCorpus(Sources, Lang);
  ASSERT_GT(C.Files.size(), 0u);
  Bundle.Interner = std::move(C.Interner);

  crf::ElementSelector Selector = selectorFor(TaskKind);
  std::vector<crf::CrfGraph> Graphs;
  for (const ParsedFile &File : C.Files) {
    auto Contexts = paths::extractPathContexts(File.Tree, Bundle.Extraction,
                                               Bundle.Table);
    Graphs.push_back(crf::buildGraph(File.Tree, Contexts, Selector));
  }
  Bundle.Model.train(Graphs);
  ASSERT_GT(Bundle.Table.size(), 0u);

  LoadDiag Diag;
  std::unique_ptr<ModelBundle> Restored = remap(Bundle, &Diag);
  ASSERT_NE(Restored, nullptr) << Diag.Error;
  EXPECT_EQ(Restored->Lang, Lang);
  EXPECT_EQ(Restored->TaskKind, TaskKind);
  EXPECT_EQ(Restored->Extraction.MaxLength, Bundle.Extraction.MaxLength);
  EXPECT_EQ(Restored->Extraction.MaxWidth, Bundle.Extraction.MaxWidth);
  EXPECT_EQ(Restored->Extraction.Abst, Bundle.Extraction.Abst);
  EXPECT_EQ(Restored->Extraction.IncludeSemiPaths,
            Bundle.Extraction.IncludeSemiPaths);
  EXPECT_EQ(Restored->Model.numFeatures(), Bundle.Model.numFeatures());

  // The interner and packed path table must survive byte-exactly: PathIds
  // feed the feature hash, so any drift silently changes predictions.
  ASSERT_EQ(Restored->Interner->size(), Bundle.Interner->size());
  for (uint32_t I = 1; I < Bundle.Interner->size(); ++I)
    EXPECT_EQ(Restored->Interner->str(Symbol::fromIndex(I)),
              Bundle.Interner->str(Symbol::fromIndex(I)));
  ASSERT_EQ(Restored->Table.size(), Bundle.Table.size());
  for (paths::PathId Id = 1; Id <= Bundle.Table.size(); ++Id) {
    auto Want = Bundle.Table.bytes(Id);
    auto Got = Restored->Table.bytes(Id);
    ASSERT_EQ(Want.size(), Got.size()) << "path " << Id;
    EXPECT_TRUE(std::equal(Want.begin(), Want.end(), Got.begin()))
        << "path " << Id;
  }
}

std::string matrixName(
    const ::testing::TestParamInfo<std::tuple<Language, Task>> &Info) {
  static const char *Langs[] = {"Js", "Java", "Py", "Cs"};
  static const char *Tasks[] = {"Vars", "Methods", "Types"};
  return std::string(Langs[static_cast<int>(std::get<0>(Info.param))]) +
         Tasks[static_cast<int>(std::get<1>(Info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllLangsAllTasks, ModelIOMatrix,
    ::testing::Combine(::testing::Values(Language::JavaScript, Language::Java,
                                         Language::Python, Language::CSharp),
                       ::testing::Values(Task::VariableNames,
                                         Task::MethodNames, Task::FullTypes)),
    matrixName);

} // namespace

//===- modelio_test.cpp - Unit tests for whole-model persistence -----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "core/ModelIO.h"

#include "lang/js/JsParser.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;

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

  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::unique_ptr<ModelBundle> Restored = loadModel(Buffer);
  ASSERT_NE(Restored, nullptr);
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
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::unique_ptr<ModelBundle> Restored = loadModel(Buffer);
  ASSERT_NE(Restored, nullptr);
  auto Pred = predictWith(*Restored, MinifiedFlag);
  ASSERT_TRUE(Pred.count("a"));
  EXPECT_EQ(Pred["a"], "done");
}

TEST(ModelIO, NewStringsInternAfterSavedOnes) {
  ModelBundle Original = trainBundle();
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::unique_ptr<ModelBundle> Restored = loadModel(Buffer);
  ASSERT_NE(Restored, nullptr);
  size_t Saved = Restored->Interner->size();
  Symbol Fresh = Restored->Interner->intern("neverSeenBefore123");
  EXPECT_EQ(Fresh.index(), Saved);
}

TEST(ModelIO, RejectsGarbage) {
  std::stringstream Buffer("definitely not a model");
  EXPECT_EQ(loadModel(Buffer), nullptr);
}

TEST(ModelIO, RejectsTruncation) {
  ModelBundle Original = trainBundle();
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::string Bytes = Buffer.str();
  // Chop in the middle of the interner section.
  std::stringstream Truncated(Bytes.substr(0, Bytes.size() / 3));
  EXPECT_EQ(loadModel(Truncated), nullptr);
}

TEST(ModelIO, RejectsWrongMagic) {
  ModelBundle Original = trainBundle();
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::string Bytes = Buffer.str();
  Bytes[0] ^= 0x5a;
  std::stringstream Corrupted(Bytes);
  EXPECT_EQ(loadModel(Corrupted), nullptr);
}

TEST(ModelIO, RejectsVersionMismatch) {
  ModelBundle Original = trainBundle();
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::string Bytes = Buffer.str();
  // A bundle from a future (or past) format version must not load.
  Bytes[4] ^= 0x01; // Low byte of the little-endian version field.
  std::stringstream Corrupted(Bytes);
  EXPECT_EQ(loadModel(Corrupted), nullptr);
}

TEST(ModelIO, RejectsTruncationAtEveryQuarter) {
  ModelBundle Original = trainBundle();
  std::stringstream Buffer;
  saveModel(Buffer, Original);
  std::string Bytes = Buffer.str();
  for (size_t Num = 1; Num <= 3; ++Num) {
    std::stringstream Truncated(Bytes.substr(0, Bytes.size() * Num / 4));
    EXPECT_EQ(loadModel(Truncated), nullptr) << "quarter " << Num;
  }
}

//===----------------------------------------------------------------------===//
// Canonical v2 model image
//===----------------------------------------------------------------------===//

/// A frozen view over \p Flat, which must outlive every model adopting it.
crf::FrozenCrf viewOf(const crf::FlatCrf &Flat) {
  crf::FrozenCrf View;
  View.WeightKeys = Flat.WeightKeys.data();
  View.WeightVals = Flat.WeightVals.data();
  View.NumWeights = Flat.WeightKeys.size();
  View.CandKeys = Flat.CandKeys.data();
  View.CandOffsets = Flat.CandOffsets.data();
  View.CandPairs = Flat.CandPairs.data();
  View.NumCands = Flat.CandKeys.size();
  View.PrunedKeys = Flat.PrunedKeys.data();
  View.NumPruned = Flat.PrunedKeys.size();
  View.GlobalTop = Flat.GlobalTop.data();
  View.NumGlobal = static_cast<uint32_t>(Flat.GlobalTop.size());
  return View;
}

TEST(ModelIO, MapBackedAndFrozenSaveIdenticalBytes) {
  ModelBundle Bundle = trainBundle();
  ASSERT_FALSE(Bundle.Model.frozen());
  std::stringstream MapBacked;
  saveModel(MapBacked, Bundle);

  crf::FlatCrf Flat = Bundle.Model.flatten();
  Bundle.Model.adoptFrozen(viewOf(Flat));
  ASSERT_TRUE(Bundle.Model.frozen());
  std::stringstream Frozen;
  saveModel(Frozen, Bundle);
  EXPECT_EQ(MapBacked.str(), Frozen.str());

  // Reloading the v2 image and saving it again is a fixed point.
  std::unique_ptr<ModelBundle> Restored = loadModel(MapBacked);
  ASSERT_NE(Restored, nullptr);
  std::stringstream Resaved;
  saveModel(Resaved, *Restored);
  EXPECT_EQ(Resaved.str(), Frozen.str());
}

/// A hand-written CRF section: \p WeightKeys each with weight 1.0, then
/// one single-label candidate list per entry of \p CtxKeys.
std::string crfStream(const std::vector<uint64_t> &WeightKeys,
                      const std::vector<uint64_t> &CtxKeys) {
  std::string Bytes;
  auto Pod = [&Bytes](const auto &Value) {
    Bytes.append(reinterpret_cast<const char *>(&Value), sizeof(Value));
  };
  Pod(uint32_t{0x43524631}); // "CRF1"
  Pod(uint32_t{1});
  Pod(static_cast<uint64_t>(WeightKeys.size()));
  for (uint64_t Key : WeightKeys) {
    Pod(Key);
    Pod(1.0);
  }
  Pod(static_cast<uint64_t>(CtxKeys.size()));
  for (uint64_t Ctx : CtxKeys) {
    Pod(Ctx);
    Pod(uint32_t{1}); // One (label, count) pair.
    Pod(uint32_t{3});
    Pod(uint32_t{1});
  }
  Pod(uint64_t{0}); // No pruned paths.
  Pod(uint32_t{0}); // No global candidates.
  return Bytes;
}

TEST(ModelIO, CrfLoadRejectsDuplicateKeys) {
  auto Loads = [](const std::string &Bytes) {
    std::stringstream IS(Bytes);
    crf::CrfModel Model;
    return Model.load(IS);
  };
  EXPECT_TRUE(Loads(crfStream({7, 8}, {9, 10})));
  EXPECT_FALSE(Loads(crfStream({7, 8, 7}, {9, 10})))
      << "a duplicate weight key must not load";
  EXPECT_FALSE(Loads(crfStream({7, 8}, {9, 10, 9})))
      << "a duplicate context key must not load";
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

  std::stringstream Buffer;
  saveModel(Buffer, Bundle);
  std::unique_ptr<ModelBundle> Restored = loadModel(Buffer);
  ASSERT_NE(Restored, nullptr);
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

//===- property_test.cpp - Parameterized property tests ---------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Property-style sweeps over (language × seed) using parameterized
/// gtest: invariants of generated corpora, parsed trees, extracted paths
/// and CRF graphs that must hold regardless of the inputs.
///
//===----------------------------------------------------------------------===//

#include "TempBundle.h"

#include "core/ModelIO.h"
#include "core/Pipeline.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <gtest/gtest.h>

#include <set>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using namespace pigeon::paths;
using pigeon::lang::Language;

namespace {

// gtest prints a parameter that has no PrintTo overload as its raw bytes,
// and that text becomes part of each test's registered name. The bytes
// between Lang and Seed are therefore an explicit zeroed member rather
// than alignment padding, which would leak uninitialized memory into the
// names and make them differ from one test discovery to the next.
struct CorpusParam {
  CorpusParam(Language Lang, uint64_t Seed) : Lang(Lang), Seed(Seed) {}

  Language Lang;
  uint8_t Reserved[7] = {};
  uint64_t Seed;
};
static_assert(sizeof(CorpusParam) == 16,
              "CorpusParam must have no padding bytes");

std::string paramName(const testing::TestParamInfo<CorpusParam> &Info) {
  std::string Name = lang::languageName(Info.param.Lang);
  if (Name == "C#")
    Name = "CSharp";
  return Name + "_seed" + std::to_string(Info.param.Seed);
}

class CorpusProperty : public testing::TestWithParam<CorpusParam> {
protected:
  static const Corpus &corpus() {
    static std::map<std::pair<int, uint64_t>, Corpus> Cache;
    CorpusParam P = GetParam();
    auto Key = std::make_pair(static_cast<int>(P.Lang), P.Seed);
    auto It = Cache.find(Key);
    if (It == Cache.end()) {
      datagen::CorpusSpec Spec = datagen::defaultSpec(P.Lang, P.Seed);
      Spec.NumProjects = 6;
      Spec.FilesPerProject = 8;
      It = Cache
               .emplace(Key, parseCorpus(datagen::generateCorpus(Spec),
                                         P.Lang))
               .first;
    }
    return It->second;
  }
};

//===----------------------------------------------------------------------===//
// Corpus and tree invariants
//===----------------------------------------------------------------------===//

TEST_P(CorpusProperty, EveryFileParses) {
  EXPECT_EQ(corpus().ParseFailures, 0u);
  EXPECT_EQ(corpus().Files.size(), 48u);
}

TEST_P(CorpusProperty, TreeStructureInvariants) {
  for (const ParsedFile &File : corpus().Files) {
    const Tree &T = File.Tree;
    // Parent/child coherence and preorder numbering.
    for (NodeId Id = 1; Id < T.size(); ++Id) {
      const Node &N = T.node(Id);
      ASSERT_NE(N.Parent, InvalidNode) << "only the root lacks a parent";
      ASSERT_LT(N.Parent, Id) << "parents precede children in preorder";
      EXPECT_EQ(T.node(N.Parent).Depth + 1, N.Depth);
      auto Siblings = T.children(N.Parent);
      ASSERT_LT(N.IndexInParent, Siblings.size());
      EXPECT_EQ(Siblings[N.IndexInParent], Id);
    }
    // Terminals are exactly the value-carrying leaves, in id order.
    size_t LeafCount = 0;
    for (NodeId Id = 0; Id < T.size(); ++Id)
      if (T.node(Id).isTerminal())
        ++LeafCount;
    EXPECT_EQ(LeafCount, T.terminals().size());
  }
}

TEST_P(CorpusProperty, ElementOccurrencesAreConsistent) {
  for (const ParsedFile &File : corpus().Files) {
    const Tree &T = File.Tree;
    for (ElementId E = 0; E < T.elements().size(); ++E) {
      for (NodeId Occ : T.occurrences(E)) {
        EXPECT_EQ(T.node(Occ).Element, E)
            << "occurrence lists must round-trip through node elements";
        EXPECT_TRUE(T.node(Occ).isTerminal());
      }
    }
  }
}

TEST_P(CorpusProperty, GenerationIsDeterministic) {
  CorpusParam P = GetParam();
  datagen::CorpusSpec Spec = datagen::defaultSpec(P.Lang, P.Seed);
  Spec.NumProjects = 2;
  auto A = datagen::generateCorpus(Spec);
  auto B = datagen::generateCorpus(Spec);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Text, B[I].Text);
}

//===----------------------------------------------------------------------===//
// Path-extraction invariants
//===----------------------------------------------------------------------===//

TEST_P(CorpusProperty, ExtractionRespectsLimits) {
  PathTable Table;
  ExtractionConfig Config;
  Config.MaxLength = 5;
  Config.MaxWidth = 2;
  for (const ParsedFile &File : corpus().Files) {
    const Tree &T = File.Tree;
    for (const PathContext &Ctx : extractPathContexts(T, Config, Table)) {
      PathShape Shape = pathShape(T, Ctx.Start, Ctx.End);
      EXPECT_LE(Shape.Length, Config.MaxLength);
      EXPECT_LE(Shape.Width, Config.MaxWidth);
      if (Ctx.Semi) {
        EXPECT_EQ(Shape.Pivot, Ctx.End);
      }
    }
  }
}

TEST_P(CorpusProperty, WiderLimitsExtractSupersets) {
  PathTable Table;
  ExtractionConfig Narrow, Wide;
  Narrow.MaxLength = 4;
  Narrow.MaxWidth = 2;
  Wide.MaxLength = 7;
  Wide.MaxWidth = 3;
  for (size_t I = 0; I < 5 && I < corpus().Files.size(); ++I) {
    const Tree &T = corpus().Files[I].Tree;
    auto NarrowSet = extractPathContexts(T, Narrow, Table);
    auto WideSet = extractPathContexts(T, Wide, Table);
    EXPECT_GE(WideSet.size(), NarrowSet.size());
    // Every narrow pair is found among the wide pairs.
    std::set<std::pair<NodeId, NodeId>> WidePairs;
    for (const PathContext &Ctx : WideSet)
      WidePairs.emplace(Ctx.Start, Ctx.End);
    for (const PathContext &Ctx : NarrowSet)
      EXPECT_TRUE(WidePairs.count({Ctx.Start, Ctx.End}));
  }
}

TEST_P(CorpusProperty, AbstractionRefinementsNeverGrowVocabulary) {
  // The ladder is not a total order (first-last and top are
  // incomparable), but along each genuine refinement chain a coarser
  // abstraction can never have MORE distinct paths than a finer one:
  //   full ⊒ no-arrows ⊒ forget-order ⊒ no-path
  //   full ⊒ first-top-last ⊒ top ⊒ no-path
  //   full ⊒ first-top-last ⊒ first-last ⊒ no-path
  auto VocabularyOf = [&](Abstraction A) {
    PathTable Table;
    ExtractionConfig Config;
    Config.Abst = A;
    for (const ParsedFile &File : corpus().Files)
      extractPathContexts(File.Tree, Config, Table);
    return Table.size();
  };
  size_t Full = VocabularyOf(Abstraction::Full);
  size_t NoArrows = VocabularyOf(Abstraction::NoArrows);
  size_t ForgetOrder = VocabularyOf(Abstraction::ForgetOrder);
  size_t FirstTopLast = VocabularyOf(Abstraction::FirstTopLast);
  size_t FirstLast = VocabularyOf(Abstraction::FirstLast);
  size_t Top = VocabularyOf(Abstraction::Top);
  size_t NoPath = VocabularyOf(Abstraction::NoPath);
  EXPECT_GE(Full, NoArrows);
  EXPECT_GE(NoArrows, ForgetOrder);
  EXPECT_GE(ForgetOrder, NoPath);
  EXPECT_GE(Full, FirstTopLast);
  EXPECT_GE(FirstTopLast, Top);
  EXPECT_GE(FirstTopLast, FirstLast);
  EXPECT_GE(FirstLast, NoPath);
  EXPECT_EQ(NoPath, 1u);
}

TEST_P(CorpusProperty, PathStringsRoundTripDeterministically) {
  const Tree &T = corpus().Files.front().Tree;
  auto Leaves = T.terminals();
  ASSERT_GE(Leaves.size(), 2u);
  for (size_t I = 0; I + 1 < Leaves.size() && I < 10; ++I) {
    std::string A = pathString(T, Leaves[I], Leaves[I + 1],
                               Abstraction::Full);
    std::string B = pathString(T, Leaves[I], Leaves[I + 1],
                               Abstraction::Full);
    EXPECT_EQ(A, B);
    EXPECT_FALSE(A.empty());
  }
}

//===----------------------------------------------------------------------===//
// CRF graph invariants
//===----------------------------------------------------------------------===//

TEST_P(CorpusProperty, GraphInvariants) {
  PathTable Table;
  ExtractionConfig Config;
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  for (const ParsedFile &File : corpus().Files) {
    const Tree &T = File.Tree;
    crf::CrfGraph G = crf::buildGraph(
        T, extractPathContexts(T, Config, Table), Selector);
    std::set<uint32_t> UnknownSet(G.Unknowns.begin(), G.Unknowns.end());
    EXPECT_EQ(UnknownSet.size(), G.Unknowns.size()) << "no duplicates";
    for (uint32_t N : G.Unknowns)
      EXPECT_FALSE(G.Nodes[N].Known);
    for (const crf::Factor &F : G.Factors) {
      ASSERT_LT(F.A, G.Nodes.size());
      ASSERT_LT(F.B, G.Nodes.size());
      EXPECT_EQ(F.Unary, F.A == F.B);
      EXPECT_FALSE(G.Nodes[F.A].Known && G.Nodes[F.B].Known)
          << "known-known factors are dropped";
    }
  }
}

TEST_P(CorpusProperty, CrfModelSerializationRoundTrips) {
  ModelBundle Bundle;
  crf::ElementSelector Selector = selectorFor(Task::VariableNames);
  std::vector<crf::CrfGraph> Graphs;
  for (size_t I = 0; I < 16 && I < corpus().Files.size(); ++I) {
    const Tree &T = corpus().Files[I].Tree;
    Graphs.push_back(crf::buildGraph(
        T, extractPathContexts(T, Bundle.Extraction, Bundle.Table),
        Selector));
  }
  crf::CrfConfig CC;
  CC.Epochs = 2;
  Bundle.Model = crf::CrfModel(CC);
  Bundle.Model.train(Graphs);
  // The bundle's interner holds the corpus's strings at the same ids, so
  // every label the model learned stays in range.
  Bundle.Interner = std::make_unique<StringInterner>();
  for (uint32_t I = 1; I < corpus().Interner->size(); ++I)
    Bundle.Interner->intern(corpus().Interner->str(Symbol::fromIndex(I)));

  LoadDiag Diag;
  std::unique_ptr<ModelBundle> Restored = test::remap(Bundle, &Diag);
  ASSERT_NE(Restored, nullptr) << Diag.Error;
  EXPECT_EQ(Restored->Model.numFeatures(), Bundle.Model.numFeatures());
  for (const crf::CrfGraph &G : Graphs) {
    std::vector<Symbol> A = Bundle.Model.predict(G);
    std::vector<Symbol> B = Restored->Model.predict(G);
    EXPECT_EQ(A, B) << "a restored model must predict identically";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLanguages, CorpusProperty,
    testing::Values(CorpusParam{Language::JavaScript, 3},
                    CorpusParam{Language::JavaScript, 9},
                    CorpusParam{Language::Java, 3},
                    CorpusParam{Language::Java, 9},
                    CorpusParam{Language::Python, 3},
                    CorpusParam{Language::Python, 9},
                    CorpusParam{Language::CSharp, 3},
                    CorpusParam{Language::CSharp, 9}),
    paramName);

//===----------------------------------------------------------------------===//
// Serialization corner cases
//===----------------------------------------------------------------------===//

/// A bundle around a model trained on nothing.
ModelBundle emptyBundle() {
  ModelBundle Bundle;
  Bundle.Interner = std::make_unique<StringInterner>();
  Bundle.Model.train({});
  return Bundle;
}

TEST(CrfSerialization, RejectsGarbage) {
  LoadDiag Diag;
  EXPECT_EQ(test::mapBytes("not a model", &Diag), nullptr);
  EXPECT_FALSE(Diag.Error.empty());
}

TEST(CrfSerialization, RejectsTruncatedStream) {
  // Even an empty model's image carries a header, a section table and a
  // trailer; any cut through it must be rejected.
  std::string Bytes = test::bundleBytes(emptyBundle());
  LoadDiag Diag;
  EXPECT_EQ(test::mapBytes(Bytes.substr(0, Bytes.size() / 2), &Diag),
            nullptr);
  EXPECT_FALSE(Diag.Error.empty());
}

TEST(CrfSerialization, EmptyModelRoundTrips) {
  std::unique_ptr<ModelBundle> Restored = test::remap(emptyBundle());
  ASSERT_NE(Restored, nullptr);
  EXPECT_EQ(Restored->Model.numFeatures(), 0u);
  EXPECT_EQ(Restored->Model.candidateTableSize(), 0u);
}

} // namespace

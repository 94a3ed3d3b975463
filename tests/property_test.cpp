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
#include "support/Hashing.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ios>
#include <iterator>
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

  /// The pinned treeDigest() of this corpus. A data member would change
  /// the bytes, and so the names, of every test, hence a lookup.
  uint64_t pinnedTreeDigest() const;

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

uint64_t CorpusParam::pinnedTreeDigest() const {
  struct Pin {
    Language Lang;
    uint64_t Seed;
    uint64_t Digest;
  };
  static constexpr Pin Pins[] = {
      {Language::JavaScript, 3, 0x83032b7359974c3d},
      {Language::JavaScript, 9, 0xc6f07e4f132d3721},
      {Language::Java, 3, 0x39150b5fdfff0b4a},
      {Language::Java, 9, 0xe0c198e36cbbb77d},
      {Language::Python, 3, 0x6ac3874511ac5228},
      {Language::Python, 9, 0xda2dd2ea2ee0af84},
      {Language::CSharp, 3, 0xf9a02f740c6ae55f},
      {Language::CSharp, 9, 0x1c193449944e894e}};
  for (const Pin &P : Pins)
    if (P.Lang == Lang && P.Seed == Seed)
      return P.Digest;
  return 0;
}

/// FNV-1a over every file's sexpr() (a marker when the parse yields no
/// tree) and diagnostics, in corpus order.
uint64_t treeDigest(const std::vector<datagen::SourceFile> &Sources,
                    Language Lang) {
  StringInterner SI;
  std::string All;
  for (const datagen::SourceFile &Src : Sources) {
    lang::ParseResult R = parseSource(Lang, Src.Text, SI);
    All += R.Tree ? R.Tree->sexpr() : "<no tree>";
    for (const lang::Diagnostic &D : R.Diags)
      All += "\n" + D.str();
    All += '\n';
  }
  return stableHashBytes(All.data(), All.size());
}

class CorpusProperty : public testing::TestWithParam<CorpusParam> {
protected:
  static const std::vector<datagen::SourceFile> &sources() {
    static std::map<std::pair<int, uint64_t>,
                    std::vector<datagen::SourceFile>>
        Cache;
    CorpusParam P = GetParam();
    auto Key = std::make_pair(static_cast<int>(P.Lang), P.Seed);
    auto It = Cache.find(Key);
    if (It == Cache.end()) {
      datagen::CorpusSpec Spec = datagen::defaultSpec(P.Lang, P.Seed);
      Spec.NumProjects = 6;
      Spec.FilesPerProject = 8;
      It = Cache.emplace(Key, datagen::generateCorpus(Spec)).first;
    }
    return It->second;
  }

  static const Corpus &corpus() {
    static std::map<std::pair<int, uint64_t>, Corpus> Cache;
    CorpusParam P = GetParam();
    auto Key = std::make_pair(static_cast<int>(P.Lang), P.Seed);
    auto It = Cache.find(Key);
    if (It == Cache.end())
      It = Cache.emplace(Key, parseCorpus(sources(), P.Lang)).first;
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

TEST_P(CorpusProperty, TreesMatchPinnedDigest) {
  uint64_t Digest = treeDigest(sources(), GetParam().Lang);
  EXPECT_EQ(Digest, GetParam().pinnedTreeDigest())
      << "tree digest 0x" << std::hex << Digest;
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
// Malformed input
//===----------------------------------------------------------------------===//

/// Operator spellings of the four languages, for the runs a mutant
/// splices in.
constexpr std::string_view RunOperators[] = {
    "+",  "-",  "*",  "/",   "%",  "**", "//",  "<",      "<=",
    ">",  "==", "!=", "&&",  "||", "??", "!",   "~",      "++",
    "--", "=",  "+=", "?",   ":",  ".",  "not", "and",    "or",
    "in", "is", "as", "new", "typeof", "instanceof"};

/// Byte ranges of the rough tokens of \p Text: runs of identifier
/// characters and single other non-space characters, close enough to the
/// tokens of all four languages to delete or duplicate one.
std::vector<std::pair<size_t, size_t>> roughTokens(std::string_view Text) {
  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '$';
  };
  std::vector<std::pair<size_t, size_t>> Out;
  for (size_t I = 0; I < Text.size();) {
    if (std::isspace(static_cast<unsigned char>(Text[I]))) {
      ++I;
      continue;
    }
    size_t J = I + 1;
    if (IsWord(Text[I]))
      while (J < Text.size() && IsWord(Text[J]))
        ++J;
    Out.emplace_back(I, J);
    I = J;
  }
  return Out;
}

/// \p Text after one to three seeded edits: a flipped bit, a deleted or
/// duplicated token, a stray closer, an unclosed opener, or a run of
/// operators, either between operands (`x + x - x`) or prefix-style
/// before one (`! ! ! x`). One run in eight has 300-600 operators, so a
/// prefix-style run can pass the nesting budget.
std::string mutant(std::string Text, Rng &R) {
  for (uint64_t Edits = 1 + R.nextBelow(3); Edits > 0; --Edits) {
    std::vector<std::pair<size_t, size_t>> Tokens = roughTokens(Text);
    auto [Begin, End] = Tokens.empty()
                            ? std::pair<size_t, size_t>(0, 0)
                            : Tokens[R.nextBelow(Tokens.size())];
    switch (R.nextBelow(6)) {
    case 0:
      if (!Text.empty())
        Text[R.nextBelow(Text.size())] ^=
            static_cast<char>(1u << R.nextBelow(8));
      break;
    case 1:
      Text.erase(Begin, End - Begin);
      break;
    case 2:
      Text.insert(End, " " + Text.substr(Begin, End - Begin));
      break;
    case 3:
      Text.insert(Begin, 1, ")]}"[R.nextBelow(3)]);
      break;
    case 4:
      Text.insert(Begin, 1, "([{"[R.nextBelow(3)]);
      break;
    default: {
      uint64_t Length =
          R.nextBool(0.125) ? 300 + R.nextBelow(301) : 8 + R.nextBelow(57);
      bool Infix = R.nextBool(0.5);
      bool OneOperator = R.nextBool(0.5);
      std::string_view Op =
          RunOperators[R.nextBelow(std::size(RunOperators))];
      std::string Run = " ";
      for (uint64_t I = 0; I < Length; ++I) {
        if (!OneOperator)
          Op = RunOperators[R.nextBelow(std::size(RunOperators))];
        Run += Infix ? "x " : "";
        Run += std::string(Op) + " ";
      }
      Text.insert(Begin, Run + "x ");
      break;
    }
    }
  }
  return Text;
}

/// Seeded mutants per corpus file: 3,072 parses over the eight corpora,
/// about a third of a second in a Release build.
constexpr int MutantsPerFile = 8;

TEST_P(CorpusProperty, MutantsYieldTreeOrDiagnostics) {
  CorpusParam P = GetParam();
  Rng R = Rng::forStream(P.Seed, lang::languageName(P.Lang));
  StringInterner SI;
  for (const datagen::SourceFile &Src : sources())
    for (int I = 0; I < MutantsPerFile; ++I) {
      std::string Text = mutant(Src.Text, R);
      lang::ParseResult Result = parseSource(P.Lang, Text, SI);
      EXPECT_TRUE(Result.Tree || !Result.Diags.empty()) << Text;
    }
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

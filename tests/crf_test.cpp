//===- crf_test.cpp - Unit tests for the CRF ---------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/crf/Crf.h"

#include "datagen/Sketch.h"
#include "lang/js/JsParser.h"
#include "support/Hashing.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::crf;
using namespace pigeon::paths;

namespace {

ElementSelector varSelector() {
  return [](const ElementInfo &Info) {
    return Info.Predictable && (Info.Kind == ElementKind::LocalVar ||
                                Info.Kind == ElementKind::Parameter);
  };
}

/// Parses JS, extracts paths, builds a CRF graph.
struct Built {
  StringInterner &SI;
  PathTable &Table;
  std::optional<Tree> T;
  CrfGraph G;

  Built(std::string_view Source, StringInterner &SI, PathTable &Table,
        const ExtractionConfig &Config = ExtractionConfig())
      : SI(SI), Table(Table) {
    lang::ParseResult R = js::parse(Source, SI);
    EXPECT_TRUE(R.ok()) << Source;
    T = std::move(R.Tree);
    auto Contexts = extractPathContexts(*T, Config, Table);
    G = buildGraph(*T, Contexts, varSelector());
  }
};

//===----------------------------------------------------------------------===//
// Graph construction
//===----------------------------------------------------------------------===//

TEST(CrfGraphBuild, UnknownNodesAreSelectedElements) {
  StringInterner SI;
  PathTable Table;
  Built B("var done = false; while (!done) { done = true; }", SI, Table);
  ASSERT_EQ(B.G.Unknowns.size(), 1u);
  const GraphNode &N = B.G.Nodes[B.G.Unknowns[0]];
  EXPECT_FALSE(N.Known);
  EXPECT_EQ(SI.str(N.Gold), "done");
}

TEST(CrfGraphBuild, KnownNodesMergeByValue) {
  StringInterner SI;
  PathTable Table;
  Built B("f(1); g(1);", SI, Table);
  // The literal `1` appears twice but must map to one known node.
  int OnesCount = 0;
  for (const GraphNode &N : B.G.Nodes)
    if (SI.str(N.Gold) == "1")
      ++OnesCount;
  EXPECT_EQ(OnesCount, 1);
}

TEST(CrfGraphBuild, UnaryFactorsLinkSameElementOccurrences) {
  StringInterner SI;
  PathTable Table;
  Built B("var d = false; d = true;", SI, Table);
  bool SawUnary = false;
  for (const Factor &F : B.G.Factors)
    if (F.Unary) {
      SawUnary = true;
      EXPECT_EQ(F.A, F.B);
      EXPECT_FALSE(B.G.Nodes[F.A].Known);
    }
  EXPECT_TRUE(SawUnary) << "two occurrences of d must yield a unary factor";
}

TEST(CrfGraphBuild, KnownKnownFactorsDropped) {
  StringInterner SI;
  PathTable Table;
  Built B("f(1, 2);", SI, Table);
  for (const Factor &F : B.G.Factors) {
    EXPECT_FALSE(B.G.Nodes[F.A].Known && B.G.Nodes[F.B].Known)
        << "factors between two known nodes carry no signal";
  }
}

TEST(CrfGraphBuild, SemiPathAncestorsAreKnownKindNodes) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  Config.IncludeSemiPaths = true;
  Built B("var x = 1;", SI, Table, Config);
  bool SawKindNode = false;
  for (const GraphNode &N : B.G.Nodes)
    if (N.Known && SI.str(N.Gold) == "VarDef")
      SawKindNode = true;
  EXPECT_TRUE(SawKindNode);
}

TEST(CrfGraphBuild, AdjacencyCoversAllFactors) {
  StringInterner SI;
  PathTable Table;
  Built B("var a = 1; var b = a + 2; a = b;", SI, Table);
  Incidence Inc = B.G.incidence();
  ASSERT_EQ(Inc.Offsets.size(), B.G.Nodes.size() + 1);
  EXPECT_EQ(Inc.Offsets.front(), 0u);
  size_t Expected = 0;
  for (const Factor &F : B.G.Factors)
    Expected += F.Unary ? 1 : 2;
  EXPECT_EQ(Inc.Index.size(), Expected);
  // Each node lists exactly the factors touching it, in ascending factor
  // order: scores sum their terms in this order.
  for (uint32_t N = 0; N < B.G.Nodes.size(); ++N) {
    std::vector<uint32_t> Want;
    for (uint32_t F = 0; F < B.G.Factors.size(); ++F)
      if (B.G.Factors[F].A == N || B.G.Factors[F].B == N)
        Want.push_back(F);
    auto Got = Inc.of(N);
    EXPECT_EQ(std::vector<uint32_t>(Got.begin(), Got.end()), Want)
        << "node " << N;
  }
}

//===----------------------------------------------------------------------===//
// Learning end-to-end on tiny synthetic corpora
//===----------------------------------------------------------------------===//

/// The classic "loop flag" pattern with a given variable name.
std::string flagProgram(const std::string &Name) {
  return "var " + Name + " = false; while (!" + Name +
         ") { if (check()) { " + Name + " = true; } }";
}

/// A counting-loop pattern with a given variable name.
std::string counterProgram(const std::string &Name) {
  return "var " + Name + " = 0; for (var i = 0; i < n; i++) { " + Name +
         " += 1; }";
}

TEST(CrfLearning, LearnsRoleConditionedNames) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep; // Trees must outlive graphs.
  // Training: flags named done, counters named count.
  for (int I = 0; I < 6; ++I) {
    for (const std::string &Src :
         {flagProgram("done"), counterProgram("count")}) {
      lang::ParseResult R = js::parse(Src, SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);
  EXPECT_GT(Model.numFeatures(), 0u);

  // Test on the same patterns with stripped names.
  auto PredictName = [&](const std::string &Src) -> std::string {
    lang::ParseResult R = js::parse(Src, SI);
    EXPECT_TRUE(R.ok());
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    // Find the unknown node corresponding to the stripped variable `d`.
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      if (SI.str(G.Nodes[N].Gold) == "d")
        return std::string(Pred[N].isValid() ? SI.str(Pred[N])
                                               : std::string_view());
    return "";
  };
  EXPECT_EQ(PredictName(flagProgram("d")), "done");
  EXPECT_EQ(PredictName(counterProgram("d")), "count");
}

TEST(CrfLearning, TopKContainsGoldNearTop) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  for (int I = 0; I < 4; ++I) {
    for (const std::string &Name : {"done", "finished", "stop"}) {
      lang::ParseResult R = js::parse(flagProgram(Name), SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  lang::ParseResult R = js::parse(flagProgram("d"), SI);
  ASSERT_TRUE(R.ok());
  auto Contexts = extractPathContexts(*R.Tree, Config, Table);
  CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
  ASSERT_EQ(G.Unknowns.size(), 1u);
  std::vector<Symbol> Pred = Model.predict(G);
  auto Top = Model.topK(G, G.Unknowns[0], Pred, 3);
  ASSERT_GE(Top.size(), 3u);
  // All three flag-style names must appear among the top candidates.
  std::set<std::string> Names;
  for (const auto &[Label, Score] : Top)
    Names.insert(std::string(SI.str(Label)));
  EXPECT_TRUE(Names.count("done"));
  EXPECT_TRUE(Names.count("finished"));
  EXPECT_TRUE(Names.count("stop"));
}

TEST(CrfLearning, DistinguishesFig3Pair) {
  // The paper's Fig. 3 motivating pair: train flags as `done` and
  // straight-line reassigned vars as `flag`; the model must tell the two
  // programs apart (UnuglifyJS-style single-statement relations cannot).
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  auto StraightLine = [](const std::string &Name) {
    return "someCondition(); doSomething(); var " + Name + " = false; " +
           Name + " = true;";
  };
  auto Loop = [](const std::string &Name) {
    return "var " + Name + " = false; while (!" + Name +
           ") { doSomething(); if (someCondition()) { " + Name +
           " = true; } }";
  };
  for (int I = 0; I < 6; ++I) {
    for (const std::string &Src : {Loop("done"), StraightLine("flag")}) {
      lang::ParseResult R = js::parse(Src, SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  auto PredictName = [&](const std::string &Src) -> std::string {
    lang::ParseResult R = js::parse(Src, SI);
    EXPECT_TRUE(R.ok());
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      if (SI.str(G.Nodes[N].Gold) == "d")
        return std::string(Pred[N].isValid() ? SI.str(Pred[N])
                                               : std::string_view());
    return "";
  };
  EXPECT_EQ(PredictName(Loop("d")), "done");
  EXPECT_EQ(PredictName(StraightLine("d")), "flag");
}

TEST(CrfLearning, MultipleUnknownsJointlyInferred) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  auto Pair = [](const std::string &Arr, const std::string &Idx) {
    return "function f(" + Arr + ") { for (var " + Idx + " = 0; " + Idx +
           " < " + Arr + ".length; " + Idx + "++) { use(" + Arr + "[" +
           Idx + "]); } }";
  };
  for (int I = 0; I < 8; ++I) {
    lang::ParseResult R = js::parse(Pair("items", "i"), SI);
    ASSERT_TRUE(R.ok());
    Keep.push_back(std::move(R.Tree));
    auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
    TrainGraphs.push_back(buildGraph(*Keep.back(), Contexts, varSelector()));
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  lang::ParseResult R = js::parse(Pair("a", "b"), SI);
  ASSERT_TRUE(R.ok());
  auto Contexts = extractPathContexts(*R.Tree, Config, Table);
  CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
  ASSERT_EQ(G.Unknowns.size(), 2u);
  std::vector<Symbol> Pred = Model.predict(G);
  std::set<std::string> Names;
  for (uint32_t N : G.Unknowns)
    Names.insert(std::string(SI.str(Pred[N])));
  EXPECT_TRUE(Names.count("items"));
  EXPECT_TRUE(Names.count("i"));
}

TEST(CrfLearning, EmptyTrainingIsSafe) {
  CrfModel Model;
  Model.train({});
  EXPECT_EQ(Model.numFeatures(), 0u);
  StringInterner SI;
  PathTable Table;
  Built B("var x = 1;", SI, Table);
  std::vector<Symbol> Pred = Model.predict(B.G);
  EXPECT_EQ(Pred.size(), B.G.Nodes.size());
}

TEST(CrfLearning, DeterministicAcrossRuns) {
  auto Run = [](std::vector<std::string> &OutNames) {
    StringInterner SI;
    PathTable Table;
    ExtractionConfig Config;
    std::vector<CrfGraph> TrainGraphs;
    std::vector<std::optional<Tree>> Keep;
    for (int I = 0; I < 4; ++I) {
      for (const std::string &Src :
           {flagProgram("done"), counterProgram("count")}) {
        lang::ParseResult R = js::parse(Src, SI);
        Keep.push_back(std::move(R.Tree));
        auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
        TrainGraphs.push_back(
            buildGraph(*Keep.back(), Contexts, varSelector()));
      }
    }
    CrfModel Model;
    Model.train(TrainGraphs);
    lang::ParseResult R = js::parse(flagProgram("d"), SI);
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      OutNames.emplace_back(SI.str(Pred[N]));
  };
  std::vector<std::string> A, B;
  Run(A);
  Run(B);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

TEST(CrfFeatures, PairKeyIsOrderSensitive) {
  Symbol A = Symbol::fromIndex(1), B = Symbol::fromIndex(2);
  EXPECT_NE(pairKey(7, A, B), pairKey(7, B, A));
}

TEST(CrfFeatures, KeysSeparateSpaces) {
  Symbol A = Symbol::fromIndex(1);
  EXPECT_NE(unaryKey(7, A), pairKey(7, A, A));
  EXPECT_NE(contextKey(7, true, A), contextKey(7, false, A));
}

//===----------------------------------------------------------------------===//
// Weight table
//===----------------------------------------------------------------------===//

TEST(WeightTable, EmptyTableLooksUpZero) {
  WeightTable T;
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.weight(0), 0.0);
  EXPECT_EQ(T.weight(42), 0.0);
  size_t Visited = 0;
  T.forEach([&](const WeightTable::Entry &) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
}

TEST(WeightTable, KeyZeroIsAnOrdinaryKey) {
  WeightTable T;
  bool Inserted = false;
  T.findOrInsert(0, Inserted).Weight = 2.5;
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.weight(0), 2.5);
  EXPECT_EQ(T.weight(1), 0.0);
  T.findOrInsert(0, Inserted).Weight += 1.0;
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(T.weight(0), 3.5);
  T.findOrInsert(64).Weight = -1.0; // Home slot 0 of the probe array.
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.weight(0), 3.5);
  EXPECT_EQ(T.weight(64), -1.0);
}

TEST(WeightTable, GrowthKeepsEveryEntry) {
  WeightTable T;
  // Colliding low bits (multiples of 1024) and well-mixed hashes, well
  // past several 3/4-load doublings.
  std::vector<uint64_t> Keys;
  for (uint64_t I = 1; I <= 300; ++I)
    Keys.push_back(I * 1024);
  for (uint64_t I = 1; I <= 3000; ++I)
    Keys.push_back(biasKey(Symbol::fromIndex(static_cast<uint32_t>(I))));
  for (size_t I = 0; I < Keys.size(); ++I) {
    bool Inserted = false;
    WeightTable::Entry &E = T.findOrInsert(Keys[I], Inserted);
    ASSERT_TRUE(Inserted) << I;
    E.Weight = static_cast<double>(I);
    E.Total = -static_cast<double>(I);
  }
  EXPECT_EQ(T.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(T.weight(Keys[I]), static_cast<double>(I)) << I;
  EXPECT_EQ(T.weight(7), 0.0);
  EXPECT_EQ(T.weight(1024 * 301), 0.0);
}

TEST(WeightTable, IterationVisitsEachKeyOnce) {
  WeightTable T;
  std::vector<uint64_t> Keys = {0};
  for (uint64_t I = 1; I <= 500; ++I)
    Keys.push_back(unaryKey(static_cast<PathId>(I), Symbol()));
  for (uint64_t Key : Keys)
    T.findOrInsert(Key).Weight = 1.0;
  std::map<uint64_t, int> Seen;
  T.forEach([&](const WeightTable::Entry &E) { ++Seen[E.Key]; });
  ASSERT_EQ(Seen.size(), Keys.size());
  for (uint64_t Key : Keys)
    EXPECT_EQ(Seen[Key], 1) << Key;
  // Mutating iteration reaches the stored entries.
  T.forEach([](WeightTable::Entry &E) { E.Weight *= 4.0; });
  for (uint64_t Key : Keys)
    EXPECT_EQ(T.weight(Key), 4.0);
}

//===----------------------------------------------------------------------===//
// Frozen tables: the shared probe
//===----------------------------------------------------------------------===//

/// The entries stored in \p T (key 0's restored to key 0), by key.
template <typename Slot>
std::vector<Slot> storedEntries(const FrozenTable<Slot> &T) {
  std::vector<Slot> Out;
  for (uint64_t I = 0; I <= T.Mask; ++I)
    if (T.Slots[I].Key != 0)
      Out.push_back(T.Slots[I]);
  if (T.Slots[T.Mask + 1].Key != 0) {
    Out.push_back(T.Slots[T.Mask + 1]);
    Out.back().Key = 0;
  }
  std::sort(Out.begin(), Out.end(),
            [](const Slot &A, const Slot &B) { return A.Key < B.Key; });
  return Out;
}

/// Distinct random keys: about half share their low 16 bits with one
/// another so probe chains run long, and key 0 joins when \p WithZero.
std::vector<uint64_t> tableKeys(Rng &R, size_t Count, bool WithZero) {
  std::set<uint64_t> Keys;
  if (WithZero && Count > 0)
    Keys.insert(0);
  while (Keys.size() < Count) {
    uint64_t Key = R.next();
    if (R.nextBelow(2) == 0)
      Key = (Key << 16) | 0x2a5c;
    if (Key != 0)
      Keys.insert(Key);
  }
  return {Keys.begin(), Keys.end()};
}

TEST(FrozenTable, ProbeMatchesSortedReferenceAndWeightTable) {
  Rng R = Rng::forStream(17, "frozen-table-test");
  for (size_t Count : {0, 1, 2, 3, 4, 7, 48, 49, 1000, 6000}) {
    for (bool WithZero : {false, true}) {
      SCOPED_TRACE(testing::Message() << Count << " keys, zero " << WithZero);
      std::vector<uint64_t> Keys = tableKeys(R, Count, WithZero);
      std::vector<WeightSlot> Entries;
      WeightTable Live;
      for (uint64_t Key : Keys) {
        Entries.push_back({Key, R.nextDouble() - 0.5});
        Live.findOrInsert(Key).Weight = Entries.back().Weight;
      }
      // Keys arrive sorted: the sorted-array reference the tables replace.
      auto Reference = [&](uint64_t Key) -> const WeightSlot * {
        auto It = std::lower_bound(
            Entries.begin(), Entries.end(), Key,
            [](const WeightSlot &S, uint64_t K) { return S.Key < K; });
        return It != Entries.end() && It->Key == Key ? &*It : nullptr;
      };

      std::vector<WeightSlot> Shuffled = Entries;
      R.shuffle(Shuffled);
      std::vector<WeightSlot> Slots = freezeTable(Shuffled);
      // The smallest power-of-two table at most 3/4 full, plus key 0's.
      bool HasZero = !Keys.empty() && Keys.front() == 0;
      size_t Cap = Slots.size() - 1, Probed = Count - (HasZero ? 1 : 0);
      ASSERT_EQ(Cap & (Cap - 1), 0u);
      EXPECT_LE(Probed * 4, Cap * 3);
      EXPECT_TRUE(Cap == 1 || Probed * 4 > Cap / 2 * 3);
      // The layout depends on the key set, not on the insertion order.
      std::vector<WeightSlot> Again = freezeTable(Entries);
      ASSERT_EQ(Again.size(), Slots.size());
      EXPECT_EQ(std::memcmp(Again.data(), Slots.data(),
                            Slots.size() * sizeof(WeightSlot)),
                0);

      FrozenTable<WeightSlot> T{Slots.data(), Cap - 1};
      auto Check = [&](uint64_t Key) {
        const WeightSlot *Want = Reference(Key);
        const WeightSlot *Got = T.find(Key);
        ASSERT_EQ(Got != nullptr, Want != nullptr) << Key;
        double Expect = Want ? Want->Weight : 0.0;
        if (Got) {
          EXPECT_EQ(Got->Weight, Expect) << Key;
        }
        EXPECT_EQ(Live.weight(Key), Expect) << Key;
      };
      for (uint64_t Key : Keys)
        Check(Key);
      for (uint64_t Key : tableKeys(R, 200, /*WithZero=*/!WithZero))
        Check(Key);
      EXPECT_EQ(storedEntries(T).size(), Count);
    }
  }
}

TEST(FrozenTable, CandidateSlotsKeepTheirRanges) {
  Rng R = Rng::forStream(18, "frozen-table-test");
  std::vector<uint64_t> Keys = tableKeys(R, 300, /*WithZero=*/true);
  std::vector<CandSlot> Entries;
  for (uint32_t I = 0; I < Keys.size(); ++I)
    Entries.push_back({Keys[I], 3 * I, I % 5});
  std::vector<CandSlot> Slots = freezeTable(Entries);
  FrozenTable<CandSlot> T{Slots.data(), Slots.size() - 2};
  for (const CandSlot &E : Entries) {
    const CandSlot *S = T.find(E.Key);
    ASSERT_NE(S, nullptr) << E.Key;
    EXPECT_EQ(S->First, E.First);
    EXPECT_EQ(S->Count, E.Count);
  }
  EXPECT_EQ(T.find(0x2a5c), nullptr);
}

TEST(FrozenTable, FullTableTerminatesOnAbsentKeys) {
  // A table with no empty slot never comes out of freezeTable, but a
  // hostile mapped file can hold one: the probe gives up after one lap.
  for (uint64_t Cap : {1u, 2u, 64u}) {
    std::vector<WeightSlot> Slots(Cap + 1);
    for (uint64_t I = 0; I < Cap; ++I)
      Slots[I] = {I + 1, 1.0};
    FrozenTable<WeightSlot> T{Slots.data(), Cap - 1};
    EXPECT_EQ(T.find(Cap + 1), nullptr);
    EXPECT_EQ(T.find(0), nullptr);
    EXPECT_NE(T.find(Cap), nullptr);
  }
}

//===----------------------------------------------------------------------===//
// Golden digests: trained state and predictions pinned across builds
//===----------------------------------------------------------------------===//

/// Accumulates raw bytes for one FNV-1a digest (stableHashBytes).
class DigestBuffer {
public:
  template <typename T> void pod(const T &Value) {
    Bytes.append(reinterpret_cast<const char *>(&Value), sizeof(Value));
  }
  template <typename T> void array(const T *Values, uint64_t Count) {
    pod(Count);
    if (Count)
      Bytes.append(reinterpret_cast<const char *>(Values),
                   Count * sizeof(T));
  }
  void score(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    pod(Bits);
  }
  uint64_t digest() const {
    return stableHashBytes(Bytes.data(), Bytes.size());
  }

private:
  std::string Bytes;
};

/// Digests the model's state in the key-sorted layout the constants were
/// first pinned over (weight keys and values, context keys with entry
/// offsets and pairs, pruned paths, global labels), rebuilt from the
/// hashed tables so the digest does not depend on the table layout.
uint64_t modelDigest(const CrfModel &Model) {
  const FrozenCrf &F = Model.image();
  std::vector<uint64_t> WeightKeys, CandKeys, CandOffsets = {0};
  std::vector<double> WeightVals;
  std::vector<uint32_t> CandPairs;
  for (const WeightSlot &S : storedEntries(F.Weights)) {
    WeightKeys.push_back(S.Key);
    WeightVals.push_back(S.Weight);
  }
  for (const CandSlot &S : storedEntries(F.Cands)) {
    CandKeys.push_back(S.Key);
    CandPairs.insert(CandPairs.end(), F.CandPairs + 2 * size_t(S.First),
                     F.CandPairs + 2 * (size_t(S.First) + S.Count));
    CandOffsets.push_back(CandOffsets.back() + S.Count);
  }
  EXPECT_EQ(WeightKeys.size(), F.NumWeights);
  EXPECT_EQ(CandKeys.size(), F.NumCands);
  DigestBuffer D;
  D.array(WeightKeys.data(), WeightKeys.size());
  D.array(WeightVals.data(), WeightVals.size()); // Raw IEEE bits.
  D.array(CandKeys.data(), CandKeys.size());
  D.array(CandOffsets.data(), CandOffsets.size());
  D.array(CandPairs.data(), CandPairs.size());
  D.array(F.PrunedKeys, F.NumPruned);
  D.array(F.GlobalTop, F.NumGlobal);
  return D.digest();
}

/// An owned copy of \p V's arrays, independent of the model it came from.
FlatCrf copyOf(const FrozenCrf &V) {
  FlatCrf F;
  F.Weights.assign(V.Weights.Slots, V.Weights.Slots + V.Weights.numSlots());
  F.NumWeights = V.NumWeights;
  F.Cands.assign(V.Cands.Slots, V.Cands.Slots + V.Cands.numSlots());
  F.NumCands = V.NumCands;
  F.CandPairs.assign(V.CandPairs, V.CandPairs + 2 * V.NumCandPairs);
  F.PrunedKeys.assign(V.PrunedKeys, V.PrunedKeys + V.NumPruned);
  F.GlobalTop.assign(V.GlobalTop, V.GlobalTop + V.NumGlobal);
  return F;
}

struct PredictionDigests {
  uint64_t Assignments = 0;
  /// topK(3) labels and scores plus explain() totals per unknown.
  uint64_t Scores = 0;
};

PredictionDigests predictionDigests(const CrfModel &Model,
                                    const std::vector<CrfGraph> &Graphs) {
  DigestBuffer Assign, Scores;
  for (const CrfGraph &G : Graphs) {
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns) {
      Assign.pod(Pred[N].index());
      for (const auto &[Label, Score] : Model.topK(G, N, Pred, 3)) {
        Scores.pod(Label.index());
        Scores.score(Score);
      }
      if (Pred[N].isValid())
        Scores.score(Model.explain(G, N, Pred[N], Pred, 0).Total);
    }
  }
  return {Assign.digest(), Scores.digest()};
}

/// One training configuration and the digests it must reproduce. The
/// constants pin the kernel's exact output: any change to feature keys,
/// update order or float summation order moves them.
struct GoldenCase {
  const char *Name;
  CrfConfig Config;
  uint64_t Model;
  uint64_t Assignments;
  uint64_t Scores;
};

std::string hex(uint64_t Digest) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64 "ULL", Digest);
  return Buf;
}

CrfConfig goldenConfig(void (*Tweak)(CrfConfig &)) {
  CrfConfig C;
  Tweak(C);
  return C;
}

/// The golden corpus: seed-2018 datagen JS, six projects to train on and
/// two held out for prediction. Built once; the trees stay alive with it.
struct GoldenCorpus {
  StringInterner SI;
  PathTable Table;
  std::vector<std::optional<Tree>> Keep;
  std::vector<CrfGraph> TrainGraphs, HeldOut;

  GoldenCorpus() {
    datagen::CorpusSpec Spec =
        datagen::defaultSpec(lang::Language::JavaScript, /*Seed=*/2018);
    Spec.NumProjects = 8;
    ExtractionConfig Extraction;
    std::set<std::string> Projects;
    for (const datagen::SourceFile &File : datagen::generateCorpus(Spec)) {
      lang::ParseResult R = js::parse(File.Text, SI);
      EXPECT_TRUE(R.ok()) << File.FileName;
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Extraction, Table);
      Projects.insert(File.Project);
      (Projects.size() <= 6 ? TrainGraphs : HeldOut)
          .push_back(buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
};

const GoldenCorpus &goldenCorpus() {
  static const GoldenCorpus C;
  return C;
}

// The default configuration's digests.
constexpr uint64_t DefaultModelDigest = 0x42613f58d6356feaULL;
constexpr uint64_t DefaultAssignmentsDigest = 0x3cb9170bc889be68ULL;
constexpr uint64_t DefaultScoresDigest = 0x31f06cd2140ad794ULL;

TEST(CrfKernel, GoldenDigests) {
  const std::vector<CrfGraph> &TrainGraphs = goldenCorpus().TrainGraphs;
  const std::vector<CrfGraph> &HeldOut = goldenCorpus().HeldOut;
  ASSERT_FALSE(TrainGraphs.empty());
  ASSERT_FALSE(HeldOut.empty());

  const GoldenCase Cases[] = {
      {"default", CrfConfig(), DefaultModelDigest, DefaultAssignmentsDigest,
       DefaultScoresDigest},
      {"l2shrink", goldenConfig([](CrfConfig &C) { C.L2Shrink = 0.1; }),
       0x769e27adbb6a1260ULL, 0x1a9240450c057163ULL, 0x023f811a8bc8c686ULL},
      {"pathlift", goldenConfig([](CrfConfig &C) { C.MinPathLift = 1.8; }),
       0x4fa00d3b91675dfbULL, 0x2087bdf0238f34f8ULL, 0xd323fb9a0cd159d8ULL},
      {"no_uu",
       goldenConfig([](CrfConfig &C) { C.UnknownUnknownFactors = false; }),
       0x6bb3fd551b26143bULL, 0x43b6e1e164e54d1bULL, 0x408a800c449f7c00ULL},
      {"no_unary",
       goldenConfig([](CrfConfig &C) { C.UnaryFactors = false; }),
       0x92439b81d4bb2b48ULL, 0x0de3b25690c85f17ULL, 0xbebf0a9d4181aa1cULL},
      {"one_pass",
       goldenConfig([](CrfConfig &C) { C.InferencePasses = 1; }),
       0x52b335653ba1be68ULL, 0x8183094340311217ULL, 0xfef0265e0f1c2c99ULL},
  };
  for (const GoldenCase &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    CrfModel Model(Case.Config);
    Model.train(TrainGraphs);
    uint64_t ModelD = modelDigest(Model);
    PredictionDigests Pred = predictionDigests(Model, HeldOut);
    EXPECT_EQ(ModelD, Case.Model) << hex(ModelD);
    EXPECT_EQ(Pred.Assignments, Case.Assignments) << hex(Pred.Assignments);
    EXPECT_EQ(Pred.Scores, Case.Scores) << hex(Pred.Scores);

    // A separately owned copy of the image, adopted the way a mapped
    // bundle's sections are, must reproduce the same state and the same
    // predictions.
    FlatCrf Copy = copyOf(Model.image());
    CrfModel Frozen(Case.Config);
    Frozen.adoptFrozen(Copy.view());
    EXPECT_TRUE(Frozen.frozen());
    EXPECT_EQ(modelDigest(Frozen), Case.Model);
    PredictionDigests FrozenPred = predictionDigests(Frozen, HeldOut);
    EXPECT_EQ(FrozenPred.Assignments, Case.Assignments);
    EXPECT_EQ(FrozenPred.Scores, Case.Scores);
  }
}

uint64_t bitsOf(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

TEST(CrfKernel, FusedRankingEqualsTopK) {
  // predictBatch ranks inside inference: from the pass that changed no
  // label, or from one more pass when the passes ran out. Either way every
  // held-out unknown's list must be topK()'s over predict()'s assignment,
  // labels and IEEE bits alike, under every golden configuration. K = 0
  // asks for the labels alone.
  const std::vector<CrfGraph> &HeldOut = goldenCorpus().HeldOut;
  const std::pair<const char *, CrfConfig> Configs[] = {
      {"default", CrfConfig()},
      {"l2shrink", goldenConfig([](CrfConfig &C) { C.L2Shrink = 0.1; })},
      {"pathlift", goldenConfig([](CrfConfig &C) { C.MinPathLift = 1.8; })},
      {"no_uu",
       goldenConfig([](CrfConfig &C) { C.UnknownUnknownFactors = false; })},
      {"no_unary", goldenConfig([](CrfConfig &C) { C.UnaryFactors = false; })},
      {"one_pass", goldenConfig([](CrfConfig &C) { C.InferencePasses = 1; })},
      {"no_passes", goldenConfig([](CrfConfig &C) { C.InferencePasses = 0; })},
  };
  for (const auto &[Name, Config] : Configs) {
    SCOPED_TRACE(Name);
    CrfModel Model(Config);
    Model.train(goldenCorpus().TrainGraphs);
    std::vector<std::vector<Symbol>> Preds;
    for (const CrfGraph &G : HeldOut)
      Preds.push_back(Model.predict(G));

    if (std::string_view(Name) == "one_pass") {
      // A graph whose last pass still changed a label ends elsewhere with
      // one pass fewer, and only such a graph takes the re-scoring branch.
      CrfConfig Fewer = Config;
      Fewer.InferencePasses -= 1;
      CrfModel Shorter(Fewer);
      Shorter.adoptFrozen(Model.image());
      size_t RanOut = 0;
      for (size_t I = 0; I < HeldOut.size(); ++I)
        RanOut += Shorter.predict(HeldOut[I]) != Preds[I];
      EXPECT_GE(RanOut, 1u);
    }

    for (int K : {0, 1, 3, 64}) {
      SCOPED_TRACE(K);
      std::vector<Inference> Fused = Model.predictBatch(HeldOut, K);
      ASSERT_EQ(Fused.size(), HeldOut.size());
      for (size_t I = 0; I < HeldOut.size(); ++I) {
        const CrfGraph &G = HeldOut[I];
        EXPECT_TRUE(Fused[I].Assignment == Preds[I]);
        if (K == 0) {
          EXPECT_TRUE(Fused[I].Ranked.empty());
          continue;
        }
        ASSERT_EQ(Fused[I].Ranked.size(), G.Unknowns.size());
        for (size_t U = 0; U < G.Unknowns.size(); ++U) {
          Ranking Ref = Model.topK(G, G.Unknowns[U], Preds[I], K);
          const Ranking &Got = Fused[I].Ranked[U];
          ASSERT_EQ(Got.size(), Ref.size());
          for (size_t J = 0; J < Ref.size(); ++J) {
            EXPECT_EQ(Got[J].first, Ref[J].first);
            EXPECT_EQ(bitsOf(Got[J].second), bitsOf(Ref[J].second));
          }
        }
      }
    }
  }
}

TEST(CrfKernel, CopiesOutliveTheTrainedOriginal) {
  // A trained model owns its image and copies share it, so a copy stays
  // valid after the original is gone. The original lives on the heap so
  // a sanitizer sees any read of freed memory.
  auto Original = std::make_unique<CrfModel>();
  Original->train(goldenCorpus().TrainGraphs);
  CrfModel Copy = *Original;
  Original.reset();
  auto ExpectDefaultDigests = [](const CrfModel &M) {
    EXPECT_FALSE(M.frozen());
    EXPECT_EQ(modelDigest(M), DefaultModelDigest);
    PredictionDigests Pred = predictionDigests(M, goldenCorpus().HeldOut);
    EXPECT_EQ(Pred.Assignments, DefaultAssignmentsDigest);
    EXPECT_EQ(Pred.Scores, DefaultScoresDigest);
  };
  ExpectDefaultDigests(Copy);
  // A move hands the image over as well.
  CrfModel Moved = std::move(Copy);
  ExpectDefaultDigests(Moved);
}

} // namespace

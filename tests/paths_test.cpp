//===- paths_test.cpp - Unit tests for AST path extraction -----------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "paths/Paths.h"

#include "lang/js/JsParser.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::paths;

namespace {

/// Fig. 1a of the paper, parsed by the MiniJS frontend.
struct Fig1 {
  StringInterner SI;
  std::optional<Tree> T;
  NodeId FirstD = InvalidNode, SecondD = InvalidNode, TrueLeaf = InvalidNode;

  Fig1() {
    lang::ParseResult R = js::parse(
        "while (!d) { if (someCondition()) { d = true; } }", SI);
    EXPECT_TRUE(R.ok());
    T = std::move(R.Tree);
    for (NodeId Leaf : T->terminals()) {
      std::string_view V = SI.str(T->node(Leaf).Value);
      if (V == "d") {
        if (FirstD == InvalidNode)
          FirstD = Leaf;
        else
          SecondD = Leaf;
      }
      if (V == "true")
        TrueLeaf = Leaf;
    }
  }
};

//===----------------------------------------------------------------------===//
// pathShape
//===----------------------------------------------------------------------===//

TEST(PathShape, Fig1PathBetweenTheTwoDs) {
  Fig1 F;
  PathShape S = pathShape(*F.T, F.FirstD, F.SecondD);
  EXPECT_EQ(F.SI.str(F.T->node(S.Pivot).Kind), "While");
  // d ^UnaryPrefix! ^While _Block _If _Block _SimpleStatement _Assign= _d:
  // our UglifyJS-style tree includes Block/SimpleStatement wrappers, so
  // the length is larger than the paper's pruned rendering but the pivot
  // and width match.
  EXPECT_GT(S.Length, 2);
  EXPECT_EQ(S.Width, 1) << "cond is child 0, body child 1 of While";
}

TEST(PathShape, Fig5WidthExample) {
  // Fig. 5: `var a, b, c, d;` — width between a and d is 3.
  StringInterner SI;
  lang::ParseResult R = js::parse("var a, b, c, d;", SI);
  ASSERT_TRUE(R.ok());
  const Tree &T = *R.Tree;
  NodeId A = T.terminals().front();
  NodeId D = T.terminals().back();
  PathShape S = pathShape(T, A, D);
  EXPECT_EQ(S.Width, 3);
  // a ^VarDef ^Var _VarDef _d = 4 edges, matching the figure.
  EXPECT_EQ(S.Length, 4);
  EXPECT_EQ(SI.str(T.node(S.Pivot).Kind), "Var");
}

TEST(PathShape, SemiPathHasWidthZero) {
  Fig1 F;
  NodeId Root = F.T->root();
  PathShape S = pathShape(*F.T, F.FirstD, Root);
  EXPECT_EQ(S.Width, 0);
  EXPECT_EQ(S.Pivot, Root);
  EXPECT_EQ(S.Length, static_cast<int>(F.T->node(F.FirstD).Depth));
}

TEST(PathShape, AdjacentSiblingsWidthOne) {
  StringInterner SI;
  lang::ParseResult R = js::parse("var a, b;", SI);
  ASSERT_TRUE(R.ok());
  const Tree &T = *R.Tree;
  PathShape S = pathShape(T, T.terminals()[0], T.terminals()[1]);
  EXPECT_EQ(S.Width, 1);
}

//===----------------------------------------------------------------------===//
// pathString and abstractions
//===----------------------------------------------------------------------===//

TEST(PathString, Fig2ShortPath) {
  // Fig. 2's p4: SymbolRef ↑ Assign= ↓ True between `d` and `true`.
  Fig1 F;
  EXPECT_EQ(pathString(*F.T, F.SecondD, F.TrueLeaf, Abstraction::Full),
            "SymbolRef^Assign=_True");
}

TEST(PathString, FullContainsArrowsAndAllNodes) {
  Fig1 F;
  std::string P = pathString(*F.T, F.FirstD, F.SecondD, Abstraction::Full);
  EXPECT_EQ(P.substr(0, 10), "SymbolRef^");
  EXPECT_NE(P.find("While"), std::string::npos);
  EXPECT_NE(P.find("_SymbolRef"), std::string::npos);
}

TEST(PathString, NoArrowsDropsOnlyArrows) {
  Fig1 F;
  std::string Full =
      pathString(*F.T, F.SecondD, F.TrueLeaf, Abstraction::Full);
  std::string NoAr =
      pathString(*F.T, F.SecondD, F.TrueLeaf, Abstraction::NoArrows);
  EXPECT_EQ(NoAr, "SymbolRef Assign= True");
  EXPECT_NE(Full, NoAr);
}

TEST(PathString, ForgetOrderSortsNodes) {
  Fig1 F;
  EXPECT_EQ(pathString(*F.T, F.SecondD, F.TrueLeaf, Abstraction::ForgetOrder),
            "Assign= SymbolRef True");
}

TEST(PathString, ForgetOrderEquatesMirroredPaths) {
  // a→b and b→a visit the same bag of nodes.
  StringInterner SI;
  lang::ParseResult R = js::parse("x = 1;", SI);
  ASSERT_TRUE(R.ok());
  const Tree &T = *R.Tree;
  NodeId A = T.terminals()[0], B = T.terminals()[1];
  EXPECT_EQ(pathString(T, A, B, Abstraction::ForgetOrder),
            pathString(T, B, A, Abstraction::ForgetOrder));
  EXPECT_NE(pathString(T, A, B, Abstraction::Full),
            pathString(T, B, A, Abstraction::Full));
}

TEST(PathString, FirstTopLast) {
  Fig1 F;
  std::string P =
      pathString(*F.T, F.FirstD, F.SecondD, Abstraction::FirstTopLast);
  EXPECT_EQ(P, "SymbolRef^While_SymbolRef");
}

TEST(PathString, FirstLast) {
  Fig1 F;
  EXPECT_EQ(pathString(*F.T, F.FirstD, F.SecondD, Abstraction::FirstLast),
            "SymbolRef..SymbolRef");
}

TEST(PathString, TopKeepsOnlyPivot) {
  Fig1 F;
  EXPECT_EQ(pathString(*F.T, F.FirstD, F.SecondD, Abstraction::Top),
            "While");
}

TEST(PathString, NoPathCollapsesEverything) {
  Fig1 F;
  EXPECT_EQ(pathString(*F.T, F.FirstD, F.SecondD, Abstraction::NoPath),
            "rel");
  EXPECT_EQ(pathString(*F.T, F.SecondD, F.TrueLeaf, Abstraction::NoPath),
            "rel");
}

TEST(PathString, SemiPathRendering) {
  Fig1 F;
  NodeId Parent = F.T->node(F.FirstD).Parent; // UnaryPrefix!
  EXPECT_EQ(pathString(*F.T, F.FirstD, Parent, Abstraction::Full),
            "SymbolRef^UnaryPrefix!");
  EXPECT_EQ(pathString(*F.T, F.FirstD, Parent, Abstraction::FirstTopLast),
            "SymbolRef^UnaryPrefix!_UnaryPrefix!");
}

TEST(PathString, AbstractionLadderShrinksDistinctPaths) {
  // Over a nontrivial program, coarser abstractions must produce no more
  // distinct paths than finer ones (the §5.6 model-size argument).
  StringInterner SI;
  lang::ParseResult R = js::parse(
      "function f(a, b) { var t = 0; for (var i = 0; i < a; i++) { t += "
      "b[i]; } return t; }",
      SI);
  ASSERT_TRUE(R.ok());
  const Tree &T = *R.Tree;
  size_t PrevCount = SIZE_MAX;
  for (Abstraction A :
       {Abstraction::Full, Abstraction::NoArrows, Abstraction::ForgetOrder,
        Abstraction::FirstTopLast, Abstraction::FirstLast, Abstraction::Top,
        Abstraction::NoPath}) {
    std::set<std::string> Distinct;
    auto Leaves = T.terminals();
    for (size_t I = 0; I < Leaves.size(); ++I)
      for (size_t J = I + 1; J < Leaves.size(); ++J)
        Distinct.insert(pathString(T, Leaves[I], Leaves[J], A));
    EXPECT_LE(Distinct.size(), PrevCount)
        << "abstraction " << abstractionName(A)
        << " must not increase path vocabulary";
    PrevCount = Distinct.size();
  }
}

//===----------------------------------------------------------------------===//
// extractPathContexts
//===----------------------------------------------------------------------===//

TEST(Extract, RespectsMaxLength) {
  Fig1 F;
  PathTable Table;
  ExtractionConfig Short;
  Short.MaxLength = 2;
  Short.MaxWidth = 10;
  Short.IncludeSemiPaths = false;
  auto Contexts = extractPathContexts(*F.T, Short, Table);
  for (const PathContext &C : Contexts) {
    PathShape S = pathShape(*F.T, C.Start, C.End);
    EXPECT_LE(S.Length, 2);
  }
}

TEST(Extract, RespectsMaxWidth) {
  StringInterner SI;
  lang::ParseResult R = js::parse("var a, b, c, d;", SI);
  ASSERT_TRUE(R.ok());
  PathTable Table;
  ExtractionConfig Config;
  Config.MaxLength = 10;
  Config.MaxWidth = 1;
  Config.IncludeSemiPaths = false;
  auto Contexts = extractPathContexts(*R.Tree, Config, Table);
  // Only adjacent declarators may pair: (a,b), (b,c), (c,d).
  EXPECT_EQ(Contexts.size(), 3u);
}

TEST(Extract, LargerLimitsExtractMorePaths) {
  Fig1 F;
  PathTable Table;
  ExtractionConfig Small{/*MaxLength=*/3, /*MaxWidth=*/1,
                         Abstraction::Full, /*IncludeSemiPaths=*/false};
  ExtractionConfig Big{/*MaxLength=*/12, /*MaxWidth=*/6, Abstraction::Full,
                       /*IncludeSemiPaths=*/false};
  EXPECT_LT(extractPathContexts(*F.T, Small, Table).size(),
            extractPathContexts(*F.T, Big, Table).size());
}

TEST(Extract, SemiPathsAreMarked) {
  Fig1 F;
  PathTable Table;
  ExtractionConfig Config;
  auto Contexts = extractPathContexts(*F.T, Config, Table);
  bool SawSemi = false, SawLeafwise = false;
  for (const PathContext &C : Contexts) {
    if (C.Semi) {
      SawSemi = true;
      EXPECT_FALSE(F.T->node(C.End).isTerminal());
    } else {
      SawLeafwise = true;
      EXPECT_TRUE(F.T->node(C.End).isTerminal());
    }
  }
  EXPECT_TRUE(SawSemi);
  EXPECT_TRUE(SawLeafwise);
}

TEST(Extract, StartPrecedesEndInSourceOrder) {
  Fig1 F;
  PathTable Table;
  ExtractionConfig Config;
  Config.IncludeSemiPaths = false;
  for (const PathContext &C : extractPathContexts(*F.T, Config, Table))
    EXPECT_LT(C.Start, C.End);
}

TEST(Extract, PathsInternAcrossTrees) {
  // The same syntactic pattern in two different programs must intern to
  // the same PathId — this is what makes cross-program learning work.
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  Config.IncludeSemiPaths = false;
  lang::ParseResult R1 = js::parse("x = true;", SI);
  lang::ParseResult R2 = js::parse("done = true;", SI);
  ASSERT_TRUE(R1.ok() && R2.ok());
  auto C1 = extractPathContexts(*R1.Tree, Config, Table);
  auto C2 = extractPathContexts(*R2.Tree, Config, Table);
  ASSERT_FALSE(C1.empty());
  ASSERT_FALSE(C2.empty());
  EXPECT_EQ(C1[0].Path, C2[0].Path);
}

TEST(Extract, EndValueOfTerminalAndNonterminal) {
  Fig1 F;
  EXPECT_EQ(F.SI.str(endValue(*F.T, F.FirstD)), "d");
  EXPECT_EQ(F.SI.str(endValue(*F.T, F.T->root())), "Toplevel");
}

//===----------------------------------------------------------------------===//
// extractPathsToNode (type-task paths)
//===----------------------------------------------------------------------===//

TEST(ExtractToNode, FindsPathsToExpressionNode) {
  Fig1 F;
  // Target: the Assign= node (parent of SecondD).
  NodeId Assign = F.T->node(F.SecondD).Parent;
  PathTable Table;
  ExtractionConfig Config;
  Config.MaxLength = 4;
  Config.MaxWidth = 2;
  auto Contexts = extractPathsToNode(*F.T, Assign, Config, Table);
  ASSERT_FALSE(Contexts.empty());
  bool SawInnerLeaf = false;
  for (const PathContext &C : Contexts) {
    EXPECT_EQ(C.End, Assign);
    if (C.Start == F.SecondD) {
      SawInnerLeaf = true;
      EXPECT_TRUE(C.Semi) << "leaf inside the target is a chain";
      EXPECT_EQ(Table.render(C.Path, F.SI), "SymbolRef^Assign=");
    }
  }
  EXPECT_TRUE(SawInnerLeaf);
}

TEST(ExtractToNode, RespectsLimits) {
  Fig1 F;
  NodeId Assign = F.T->node(F.SecondD).Parent;
  PathTable Table;
  ExtractionConfig Tight;
  Tight.MaxLength = 1;
  Tight.MaxWidth = 1;
  auto Contexts = extractPathsToNode(*F.T, Assign, Tight, Table);
  for (const PathContext &C : Contexts) {
    PathShape S = pathShape(*F.T, C.Start, C.End);
    EXPECT_LE(S.Length, 1);
    EXPECT_LE(S.Width, 1);
  }
}

//===----------------------------------------------------------------------===//
// PathTable
//===----------------------------------------------------------------------===//

TEST(PathTableTest, InternRoundTrips) {
  StringInterner SI;
  PathTable Table;
  PathId A = Table.internString("X^Y_Z");
  PathId B = Table.internString("X^Y_Z");
  PathId C = Table.internString("other");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.render(A, SI), "X^Y_Z");
  EXPECT_EQ(Table.size(), 2u);
}

TEST(PathTableTest, IdsAreDenseFromOneAndIdZeroUnused) {
  PathTable Table;
  EXPECT_EQ(Table.size(), 0u);
  PathId First = Table.internString("alpha");
  PathId Second = Table.internString("beta");
  PathId Third = Table.internString("gamma");
  EXPECT_EQ(First, 1u);
  EXPECT_EQ(Second, 2u);
  EXPECT_EQ(Third, 3u);
  EXPECT_EQ(Table.size(), 3u);
  // Re-interning never perturbs ids or the size.
  EXPECT_EQ(Table.internString("beta"), Second);
  EXPECT_EQ(Table.size(), 3u);
  // Every id holds at least the tag byte.
  for (PathId Id = 1; Id <= Table.size(); ++Id)
    EXPECT_FALSE(Table.bytes(Id).empty());
}

TEST(PathTableTest, InternSurvivesArenaGrowth) {
  // Push enough distinct paths through that the byte arena must grow
  // several blocks; earlier spans must stay valid and deduplication must
  // keep working across block boundaries.
  StringInterner SI;
  PathTable Table;
  std::vector<PathId> Ids;
  for (int I = 0; I < 5000; ++I)
    Ids.push_back(Table.internString("path-" + std::to_string(I) +
                                     std::string(64, 'x')));
  EXPECT_EQ(Table.size(), 5000u);
  for (int I = 0; I < 5000; ++I) {
    EXPECT_EQ(Table.internString("path-" + std::to_string(I) +
                                 std::string(64, 'x')),
              Ids[I]);
    EXPECT_EQ(Table.render(Ids[I], SI),
              "path-" + std::to_string(I) + std::string(64, 'x'));
  }
}

TEST(PathTableTest, AbsorbMergesByteWiseWithCorrectRemap) {
  StringInterner SI;
  PathTable Base;
  Base.internString("shared");
  Base.internString("only-base");

  PathTable Shard;
  Shard.internString("only-shard"); // Shard id 1 → new id 3.
  Shard.internString("shared");     // Shard id 2 → existing id 1.

  std::vector<PathId> Remap = Base.absorb(Shard);
  ASSERT_EQ(Remap.size(), 3u); // Index 0 unused.
  EXPECT_EQ(Remap[1], 3u);
  EXPECT_EQ(Remap[2], 1u);
  EXPECT_EQ(Base.size(), 3u);
  EXPECT_EQ(Base.render(3, SI), "only-shard");
  // Absorbing the same shard again adds nothing.
  std::vector<PathId> Again = Base.absorb(Shard);
  EXPECT_EQ(Again[1], 3u);
  EXPECT_EQ(Again[2], 1u);
  EXPECT_EQ(Base.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Packed encoding: byte equality must coincide with rendered-string
// equality (the dedup classes the learners see), for every abstraction.
//===----------------------------------------------------------------------===//

const Abstraction AllAbstractions[] = {
    Abstraction::Full,         Abstraction::NoArrows,
    Abstraction::ForgetOrder,  Abstraction::FirstTopLast,
    Abstraction::FirstLast,    Abstraction::Top,
    Abstraction::NoPath,
};

TEST(PackedPaths, DedupClassesMatchRenderedStrings) {
  StringInterner SI;
  lang::ParseResult R = js::parse(
      "function f(a, b) { var sum = a + b; var diff = a - b; "
      "while (sum > diff) { sum = sum - 1; } return sum * diff; }",
      SI);
  ASSERT_TRUE(R.ok());
  for (Abstraction Abst : AllAbstractions) {
    PathTable Table;
    ExtractionConfig Config;
    Config.MaxLength = 8;
    Config.MaxWidth = 4;
    Config.Abst = Abst;
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    ASSERT_FALSE(Contexts.empty()) << abstractionName(Abst);
    // Same rendered string ⟺ same PathId: no over- or under-merging.
    std::map<std::string, PathId> ByString;
    for (PathId Id = 1; Id <= Table.size(); ++Id) {
      auto [It, Inserted] =
          ByString.emplace(Table.render(Id, SI), Id);
      EXPECT_TRUE(Inserted)
          << abstractionName(Abst) << ": ids " << It->second << " and "
          << Id << " both render \"" << It->first << "\"";
    }
    EXPECT_EQ(ByString.size(), Table.size());
  }
}

TEST(PackedPaths, PackMatchesPathStringForLeafPairs) {
  Fig1 F;
  auto Leaves = F.T->terminals();
  PathScratch Scratch;
  for (Abstraction Abst : AllAbstractions) {
    for (size_t I = 0; I + 1 < Leaves.size(); ++I) {
      packPath(*F.T, Leaves[I], Leaves[I + 1], Abst, Scratch);
      EXPECT_EQ(renderPackedPath(Scratch.Bytes, F.SI),
                pathString(*F.T, Leaves[I], Leaves[I + 1], Abst))
          << abstractionName(Abst) << " pair " << I;
    }
  }
}

TEST(PackedPaths, Fig5FullPathRendersExactly) {
  StringInterner SI;
  lang::ParseResult R = js::parse("var a, b, c, d;", SI);
  ASSERT_TRUE(R.ok());
  const Tree &T = *R.Tree;
  NodeId A = T.terminals().front();
  NodeId D = T.terminals().back();
  PathScratch Scratch;
  packPath(T, A, D, Abstraction::Full, Scratch);
  ASSERT_FALSE(Scratch.Bytes.empty());
  EXPECT_EQ(static_cast<PathTag>(Scratch.Bytes[0]), PathTag::PairFull);
  EXPECT_EQ(renderPackedPath(Scratch.Bytes, SI),
            "SymbolVar^VarDef^Var_VarDef_SymbolVar");

  packPath(T, A, D, Abstraction::FirstLast, Scratch);
  EXPECT_EQ(static_cast<PathTag>(Scratch.Bytes[0]), PathTag::FirstLast);
  EXPECT_EQ(renderPackedPath(Scratch.Bytes, SI), "SymbolVar..SymbolVar");

  packPath(T, A, D, Abstraction::Top, Scratch);
  EXPECT_EQ(static_cast<PathTag>(Scratch.Bytes[0]), PathTag::Top);
  EXPECT_EQ(renderPackedPath(Scratch.Bytes, SI), "Var");

  packPath(T, A, D, Abstraction::NoPath, Scratch);
  EXPECT_EQ(static_cast<PathTag>(Scratch.Bytes[0]), PathTag::Raw);
  EXPECT_EQ(renderPackedPath(Scratch.Bytes, SI), "rel");
}

TEST(PackedPaths, MalformedBytesRenderAsBadPath) {
  StringInterner SI;
  std::vector<uint8_t> Truncated = {
      static_cast<uint8_t>(PathTag::PairFull), 0x80}; // Cut varint.
  EXPECT_EQ(renderPackedPath(Truncated, SI), "<bad-path>");
  std::vector<uint8_t> BogusSymbol = {
      static_cast<uint8_t>(PathTag::Top), 0x7F}; // Index 127: not interned.
  EXPECT_EQ(renderPackedPath(BogusSymbol, SI), "<bad-path>");
  std::vector<uint8_t> Empty;
  EXPECT_EQ(renderPackedPath(Empty, SI), "<bad-path>");
}

TEST(PackedPaths, RendersOverADeltaOverlay) {
  // A served request interns into an overlay of the bundle's interner, so
  // its paths mix base symbols (here ids past the overlay's own size)
  // with provisional ones; both kinds must render.
  StringInterner Base;
  for (int I = 0; I < 16; ++I)
    Base.intern("filler" + std::to_string(I));
  Symbol BaseVar = Base.intern("Var");
  StringInterner Overlay(StringInterner::Delta, Base);
  lang::ParseResult R = js::parse("var a, b, c, d;", Overlay);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(Overlay.lookup("Var"), BaseVar);
  ASSERT_GT(BaseVar.index(), Overlay.size());
  ASSERT_TRUE(Overlay.lookup("VarDef").index() &
              StringInterner::ProvisionalBit);
  const Tree &T = *R.Tree;
  PathScratch Scratch;
  packPath(T, T.terminals().front(), T.terminals().back(),
           Abstraction::Full, Scratch);
  EXPECT_EQ(renderPackedPath(Scratch.Bytes, Overlay),
            "SymbolVar^VarDef^Var_VarDef_SymbolVar");
}

TEST(PackedPaths, RemapCrossesInternerSpaces) {
  // The same source parsed against two interners whose symbol ids differ;
  // remapping packed bytes from one space to the other must preserve the
  // rendered path.
  const char *Source = "while (!d) { if (c()) { d = true; } }";
  StringInterner SA, SB;
  SB.intern("zzz-shift-the-ids");
  SB.intern("zzz-shift-more");
  lang::ParseResult RA = js::parse(Source, SA);
  lang::ParseResult RB = js::parse(Source, SB);
  ASSERT_TRUE(RA.ok() && RB.ok());

  // Map: SA index → symbol in SB.
  std::vector<Symbol> Map(SA.size());
  for (uint32_t I = 1; I < SA.size(); ++I)
    Map[I] = SB.intern(SA.str(Symbol::fromIndex(I)));

  auto Leaves = RA.Tree->terminals();
  PathScratch Scratch;
  std::vector<uint8_t> Out;
  size_t Checked = 0;
  for (Abstraction Abst : AllAbstractions) {
    for (size_t I = 0; I + 1 < Leaves.size(); ++I) {
      packPath(*RA.Tree, Leaves[I], Leaves[I + 1], Abst, Scratch);
      ASSERT_TRUE(remapPackedPath(Scratch.Bytes, Map, Out))
          << abstractionName(Abst);
      EXPECT_EQ(renderPackedPath(Out, SB),
                renderPackedPath(Scratch.Bytes, SA))
          << abstractionName(Abst);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(PackedPaths, RemapRejectsOutOfRangeSymbols) {
  StringInterner SI;
  SI.intern("only");
  std::vector<uint8_t> Packed = {static_cast<uint8_t>(PathTag::Top),
                                 0x09}; // Index 9 beyond the map.
  std::vector<Symbol> Map(SI.size());
  Map[1] = Symbol::fromIndex(1);
  std::vector<uint8_t> Out;
  EXPECT_FALSE(remapPackedPath(Packed, Map, Out));
  std::vector<uint8_t> Truncated = {static_cast<uint8_t>(PathTag::PairFull),
                                    0x80};
  EXPECT_FALSE(remapPackedPath(Truncated, Map, Out));
}

//===----------------------------------------------------------------------===//
// Discriminative power (Fig. 3): the paper's motivating pair
//===----------------------------------------------------------------------===//

TEST(Discrimination, Fig3PairDistinguishableByPathsOnly) {
  // Fig. 3a (loop) and Fig. 3b (straight-line) are indistinguishable for
  // single-statement relation models, but their AST path multisets differ.
  StringInterner SI;
  lang::ParseResult A = js::parse("var d = false; while (!d) { "
                                  "doSomething(); if (someCondition()) { d "
                                  "= true; } }",
                                  SI);
  lang::ParseResult B = js::parse("someCondition(); doSomething(); var d = "
                                  "false; d = true;",
                                  SI);
  ASSERT_TRUE(A.ok() && B.ok());
  PathTable Table;
  ExtractionConfig Config;
  Config.MaxLength = 7;
  Config.MaxWidth = 3;
  auto PathsOfD = [&](const Tree &T) {
    std::multiset<std::string> Set;
    for (const PathContext &C : extractPathContexts(T, Config, Table)) {
      std::string_view SV = SI.str(T.node(C.Start).Value);
      std::string_view EV = T.node(C.End).isTerminal()
                                ? SI.str(T.node(C.End).Value)
                                : std::string_view();
      if (SV == "d" || EV == "d")
        Set.insert(Table.render(C.Path, SI));
    }
    return Set;
  };
  EXPECT_NE(PathsOfD(*A.Tree), PathsOfD(*B.Tree))
      << "AST paths must distinguish Fig. 3a from Fig. 3b";
}

} // namespace

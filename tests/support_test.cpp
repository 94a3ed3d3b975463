//===- support_test.cpp - Unit tests for src/support -----------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/StringInterner.h"
#include "support/SubToken.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace pigeon;

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, InternIsIdempotent) {
  StringInterner SI;
  Symbol A = SI.intern("while");
  Symbol B = SI.intern("while");
  EXPECT_EQ(A, B);
  EXPECT_EQ(SI.str(A), "while");
}

TEST(StringInterner, DistinctStringsGetDistinctSymbols) {
  StringInterner SI;
  Symbol A = SI.intern("foo");
  Symbol B = SI.intern("bar");
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.str(A), "foo");
  EXPECT_EQ(SI.str(B), "bar");
}

TEST(StringInterner, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  EXPECT_EQ(S.index(), 0u);
}

TEST(StringInterner, LookupFindsOnlyInterned) {
  StringInterner SI;
  SI.intern("present");
  EXPECT_TRUE(SI.lookup("present").isValid());
  EXPECT_FALSE(SI.lookup("absent").isValid());
}

TEST(StringInterner, EmptyStringInternsToValidSymbolDistinctFromDefault) {
  StringInterner SI;
  // The empty string occupies the reserved slot 0, so interning "" must
  // yield a *new* valid symbol rather than the invalid one.
  Symbol S = SI.intern("");
  EXPECT_TRUE(S.isValid());
  EXPECT_EQ(SI.str(S), "");
}

TEST(StringInterner, ReferencesStableAcrossGrowth) {
  StringInterner SI;
  Symbol First = SI.intern("anchor");
  // str() views interner-owned pages that never move: the view's data
  // pointer must survive any amount of growth.
  const char *Ptr = SI.str(First).data();
  for (int I = 0; I < 10000; ++I)
    SI.intern("filler_" + std::to_string(I));
  EXPECT_EQ(SI.str(First).data(), Ptr);
  EXPECT_EQ(SI.str(First), "anchor");
  EXPECT_EQ(SI.lookup("anchor"), First);
}

TEST(StringInterner, FromIndexRoundTrips) {
  StringInterner SI;
  Symbol S = SI.intern("x");
  EXPECT_EQ(Symbol::fromIndex(S.index()), S);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, SameSeedSameSequence) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng A = Rng::forStream(42, "alpha");
  Rng B = Rng::forStream(42, "beta");
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, NamedStreamIsDeterministic) {
  Rng A = Rng::forStream(7, "datagen");
  Rng B = Rng::forStream(7, "datagen");
  EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng R(1);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng R(1);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(3);
  std::set<int64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u) << "all five values should appear";
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng R(11);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng R(13);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextBool(0.3);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(Rng, PickWeightedRespectsZeroWeights) {
  Rng R(17);
  std::vector<double> W = {0.0, 1.0, 0.0};
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(R.pickWeighted(W), 1u);
}

TEST(Rng, PickWeightedRoughlyProportional) {
  Rng R(19);
  std::vector<double> W = {1.0, 3.0};
  int Count1 = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Count1 += (R.pickWeighted(W) == 1);
  EXPECT_NEAR(static_cast<double>(Count1) / N, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng R(23);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng R(29);
  std::vector<int> Empty;
  R.shuffle(Empty);
  EXPECT_TRUE(Empty.empty());
  std::vector<int> One = {42};
  R.shuffle(One);
  EXPECT_EQ(One, std::vector<int>{42});
}

//===----------------------------------------------------------------------===//
// SubToken
//===----------------------------------------------------------------------===//

TEST(SubToken, NormalizeLowercasesAndStrips) {
  EXPECT_EQ(normalizeName("totalCount"), "totalcount");
  EXPECT_EQ(normalizeName("total_count"), "totalcount");
  EXPECT_EQ(normalizeName("TOTAL-COUNT$"), "totalcount");
}

TEST(SubToken, PaperExampleMatches) {
  // §5.2: totalCount is an exact match to total_count.
  EXPECT_TRUE(namesMatch("totalCount", "total_count"));
  EXPECT_FALSE(namesMatch("totalCount", "count"));
}

TEST(SubToken, MatchIsCaseInsensitive) {
  EXPECT_TRUE(namesMatch("Done", "done"));
  EXPECT_TRUE(namesMatch("HTTPClient", "httpClient"));
}

TEST(SubToken, SplitCamelCase) {
  EXPECT_EQ(splitSubTokens("totalCount"),
            (std::vector<std::string>{"total", "count"}));
}

TEST(SubToken, SplitSnakeCase) {
  EXPECT_EQ(splitSubTokens("total_count"),
            (std::vector<std::string>{"total", "count"}));
}

TEST(SubToken, SplitAcronymRun) {
  EXPECT_EQ(splitSubTokens("HTTPServer"),
            (std::vector<std::string>{"http", "server"}));
}

TEST(SubToken, SplitDigits) {
  EXPECT_EQ(splitSubTokens("manager2"),
            (std::vector<std::string>{"manager", "2"}));
}

TEST(SubToken, SplitPaperCompoundExample) {
  // §5.3: multithreadedHttpConnectionManager.
  EXPECT_EQ(splitSubTokens("multithreadedHttpConnectionManager"),
            (std::vector<std::string>{"multithreaded", "http", "connection",
                                      "manager"}));
}

TEST(SubToken, SplitSingleWord) {
  EXPECT_EQ(splitSubTokens("value"), (std::vector<std::string>{"value"}));
}

TEST(SubToken, SplitEmpty) {
  EXPECT_TRUE(splitSubTokens("").empty());
  EXPECT_TRUE(splitSubTokens("___").empty());
}

TEST(SubToken, F1PerfectMatch) {
  SubTokenScore S = scoreSubTokens("getCount", "get_count");
  EXPECT_DOUBLE_EQ(S.Precision, 1.0);
  EXPECT_DOUBLE_EQ(S.Recall, 1.0);
  EXPECT_DOUBLE_EQ(S.F1, 1.0);
}

TEST(SubToken, F1PartialMatch) {
  // Predicted getFoo vs actual getFooBar: precision 1, recall 2/3.
  SubTokenScore S = scoreSubTokens("getFoo", "getFooBar");
  EXPECT_DOUBLE_EQ(S.Precision, 1.0);
  EXPECT_NEAR(S.Recall, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(S.F1, 0.8, 1e-9);
}

TEST(SubToken, F1NoOverlap) {
  SubTokenScore S = scoreSubTokens("foo", "bar");
  EXPECT_DOUBLE_EQ(S.F1, 0.0);
}

TEST(SubToken, F1DuplicateSubTokensCountedAsMultiset) {
  // Actual has one "a"; predicting "aA" should not get double credit.
  SubTokenScore S = scoreSubTokens("a_a", "a_b");
  EXPECT_DOUBLE_EQ(S.Precision, 0.5);
  EXPECT_DOUBLE_EQ(S.Recall, 0.5);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T("demo");
  T.setHeader({"Language", "Accuracy"});
  T.addRow({"JavaScript", "67.3%"});
  T.addRow({"C#", "56.1%"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("== demo =="), std::string::npos);
  EXPECT_NE(Out.find("JavaScript  67.3%"), std::string::npos);
  EXPECT_NE(Out.find("C#          56.1%"), std::string::npos);
}

TEST(TablePrinter, PercentFormatting) {
  EXPECT_EQ(TablePrinter::percent(0.673), "67.3%");
  EXPECT_EQ(TablePrinter::percent(1.0), "100.0%");
  EXPECT_EQ(TablePrinter::percent(0.0), "0.0%");
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(TablePrinter, CsvEscapesCommasAndQuotes) {
  TablePrinter T("");
  T.setHeader({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(TablePrinter, RaggedRowsArePadded) {
  TablePrinter T("");
  T.setHeader({"a", "b", "c"});
  T.addRow({"1"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_NE(OS.str().find('1'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, CombineIsOrderSensitive) {
  uint64_t AB = hashCombine(hashCombine(0, 1), 2);
  uint64_t BA = hashCombine(hashCombine(0, 2), 1);
  EXPECT_NE(AB, BA);
}

TEST(Hashing, FinalizeIsBijectiveish) {
  // Distinct small inputs should not collide after finalization.
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I < 1000; ++I)
    Seen.insert(hashFinalize(I));
  EXPECT_EQ(Seen.size(), 1000u);
}

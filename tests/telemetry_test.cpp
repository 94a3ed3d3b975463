//===- telemetry_test.cpp - Unit tests for support/Telemetry ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace pigeon;
using namespace pigeon::telemetry;

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

TEST(Counter, IncAndAdd) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.resetValue();
  EXPECT_EQ(C.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(2.5);
  EXPECT_EQ(G.value(), 2.5);
  G.add(-1.0);
  EXPECT_EQ(G.value(), 1.5);
  G.set(7.0); // set overwrites, add accumulates
  EXPECT_EQ(G.value(), 7.0);
}

TEST(Registry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry Reg;
  Counter &A = Reg.counter("parse.files.ok");
  Counter &B = Reg.counter("parse.files.ok");
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(Reg.numCounters(), 1u);

  Gauge &G1 = Reg.gauge("crf.features");
  Gauge &G2 = Reg.gauge("crf.features");
  EXPECT_EQ(&G1, &G2);

  Histogram &H1 = Reg.histogram("paths.length", linearBounds(1, 4));
  Histogram &H2 = Reg.histogram("paths.length", linearBounds(1, 99));
  EXPECT_EQ(&H1, &H2); // later bounds are ignored
  EXPECT_EQ(H1.buckets().size(), 5u);
}

TEST(Registry, ResetZeroesButKeepsHandlesValid) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("c");
  Gauge &G = Reg.gauge("g");
  Histogram &H = Reg.histogram("h", {1.0, 2.0});
  C.add(10);
  G.set(3.5);
  H.observe(1.5);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0.0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_TRUE(Reg.traceRoot().children().empty());
  // The same references still work after reset.
  C.inc();
  EXPECT_EQ(Reg.counter("c").value(), 1u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, CountSumMinMax) {
  Histogram H(linearBounds(0, 10));
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0.0);
  EXPECT_EQ(H.max(), 0.0);
  for (double X : {3.0, 7.0, 1.0, 9.0})
    H.observe(X);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_DOUBLE_EQ(H.sum(), 20.0);
  EXPECT_EQ(H.min(), 1.0);
  EXPECT_EQ(H.max(), 9.0);
}

TEST(Histogram, OverflowBucketCatchesLargeValues) {
  Histogram H({1.0, 2.0});
  H.observe(0.5);
  H.observe(1.5);
  H.observe(100.0);
  std::vector<Histogram::Bucket> B = H.buckets();
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[0].Count, 1u);
  EXPECT_EQ(B[1].Count, 1u);
  EXPECT_EQ(B[2].Count, 1u); // overflow
  EXPECT_TRUE(std::isinf(B[2].UpperBound));
}

TEST(Histogram, ObserveNMatchesRepeatedObserve) {
  Histogram A(linearBounds(0, 4));
  Histogram B(linearBounds(0, 4));
  for (int I = 0; I < 7; ++I)
    A.observe(2.0);
  A.observe(9.0); // overflow
  B.observeN(2.0, 7);
  B.observeN(9.0, 1);
  B.observeN(5.0, 0); // no-op
  EXPECT_EQ(A.count(), B.count());
  EXPECT_DOUBLE_EQ(A.sum(), B.sum());
  EXPECT_EQ(A.min(), B.min());
  EXPECT_EQ(A.max(), B.max());
  std::vector<Histogram::Bucket> BA = A.buckets(), BB = B.buckets();
  ASSERT_EQ(BA.size(), BB.size());
  for (size_t I = 0; I < BA.size(); ++I)
    EXPECT_EQ(BA[I].Count, BB[I].Count);
}

TEST(Histogram, PercentilesOnUniformDistribution) {
  // 100 observations 1..100 into unit buckets: percentiles should land
  // within one bucket width of the exact order statistic.
  Histogram H(linearBounds(1, 100));
  for (int I = 1; I <= 100; ++I)
    H.observe(static_cast<double>(I));
  EXPECT_NEAR(H.percentile(0.50), 50.0, 1.5);
  EXPECT_NEAR(H.percentile(0.90), 90.0, 1.5);
  EXPECT_NEAR(H.percentile(0.99), 99.0, 1.5);
  // Extremes clamp to the observed range.
  EXPECT_GE(H.percentile(0.0), 1.0);
  EXPECT_LE(H.percentile(1.0), 100.0);
}

TEST(Histogram, PercentileSinglePointDistribution) {
  Histogram H(timeBounds());
  for (int I = 0; I < 10; ++I)
    H.observe(0.002);
  // Every percentile of a constant distribution is that constant (the
  // estimate is clamped to [min, max]).
  EXPECT_DOUBLE_EQ(H.percentile(0.5), 0.002);
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 0.002);
}

TEST(Histogram, TimeBoundsResolveMicroseconds) {
  // Serve's stages run from ~10 µs: a p50 over 5 µs and 60 µs samples
  // must land on the 5 µs mode, not be smeared across one 0-100 µs bucket.
  Histogram H(timeBounds());
  EXPECT_DOUBLE_EQ(timeBounds().front(), 1e-6);
  H.observeN(5e-6, 20);
  H.observeN(60e-6, 20);
  EXPECT_DOUBLE_EQ(H.percentile(0.50), 5e-6);
  EXPECT_NEAR(H.percentile(0.90), 60e-6, 5e-6);
}

TEST(Histogram, PercentileOnEmptyIsNaN) {
  Histogram H(linearBounds(0, 4));
  EXPECT_TRUE(std::isnan(H.percentile(0.5)));
  EXPECT_TRUE(std::isnan(H.percentile(0.99)));
  // min()/max() keep their documented 0.0-on-empty behavior; only the
  // quantile estimate (and the JSON emission) distinguish "empty".
  EXPECT_EQ(H.min(), 0.0);
  EXPECT_EQ(H.max(), 0.0);
}

TEST(Histogram, ConcurrentObserves) {
  MetricsRegistry Reg;
  Histogram &H = Reg.histogram("h", linearBounds(0, 8));
  Counter &C = Reg.counter("c");
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        H.observe(static_cast<double>((T + I) % 8));
        C.inc();
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(H.count(), static_cast<uint64_t>(Threads) * PerThread);
  uint64_t BucketTotal = 0;
  for (const Histogram::Bucket &B : H.buckets())
    BucketTotal += B.Count;
  EXPECT_EQ(BucketTotal, H.count());
}

//===----------------------------------------------------------------------===//
// Trace tree
//===----------------------------------------------------------------------===//

TEST(TraceScope, NestsIntoTree) {
  MetricsRegistry Reg;
  {
    TraceScope Train(Reg, "train");
    { TraceScope Extract(Reg, "extract"); }
    { TraceScope Epoch(Reg, "epoch"); }
  }
  { TraceScope Eval(Reg, "eval"); }

  std::vector<const TraceNode *> Top = Reg.traceRoot().children();
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0]->Name, "train");
  EXPECT_EQ(Top[1]->Name, "eval");
  const TraceNode &Train = *Top[0];
  std::vector<const TraceNode *> Phases = Train.children();
  ASSERT_EQ(Phases.size(), 2u);
  EXPECT_EQ(Phases[0]->Name, "extract");
  EXPECT_EQ(Phases[1]->Name, "epoch");
  EXPECT_EQ(Train.Calls.load(), 1u);
  EXPECT_GE(Train.Seconds.load(), 0.0);
}

TEST(TraceScope, RepeatedPhasesMergeByName) {
  MetricsRegistry Reg;
  for (int I = 0; I < 5; ++I) {
    TraceScope Epoch(Reg, "epoch");
  }
  std::vector<const TraceNode *> Top = Reg.traceRoot().children();
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0]->Name, "epoch");
  EXPECT_EQ(Top[0]->Calls.load(), 5u);
}

TEST(TraceScope, SecondsIsReadableMidScope) {
  MetricsRegistry Reg;
  TraceScope Phase(Reg, "sleep");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(Phase.seconds(), 0.004);
}

TEST(TraceScope, ChildSecondsBoundedByParent) {
  MetricsRegistry Reg;
  {
    TraceScope Outer(Reg, "outer");
    TraceScope Inner(Reg, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<const TraceNode *> Top = Reg.traceRoot().children();
  ASSERT_EQ(Top.size(), 1u);
  const TraceNode &Outer = *Top[0];
  std::vector<const TraceNode *> Inner = Outer.children();
  ASSERT_EQ(Inner.size(), 1u);
  EXPECT_LE(Inner[0]->Seconds.load(), Outer.Seconds.load() + 1e-9);
}

// Writers that open the same nested phases at once, while a reader walks
// the tree, must leave one node per name with every call counted. Under
// TSan this is the lock-free path's race check.
TEST(TraceScope, ConcurrentNestedPhasesMergeIntoOneNodePerName) {
  MetricsRegistry Reg;
  constexpr int Threads = 8, Rounds = 200;
  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    while (!Done.load()) {
      profileLines(Reg.traceRoot());
      Reg.jsonSnapshot();
    }
  });
  std::vector<std::thread> Writers;
  for (int T = 0; T < Threads; ++T)
    Writers.emplace_back([&] {
      for (int I = 0; I < Rounds; ++I) {
        TraceScope Outer(Reg, "outer");
        { TraceScope Left(Reg, "left"); }
        { TraceScope Right(Reg, "right"); }
      }
    });
  for (std::thread &W : Writers)
    W.join();
  Done.store(true);
  Reader.join();

  std::vector<const TraceNode *> Top = Reg.traceRoot().children();
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0]->Name, "outer");
  EXPECT_EQ(Top[0]->Calls.load(), uint64_t(Threads * Rounds));
  std::vector<const TraceNode *> Inner = Top[0]->children();
  ASSERT_EQ(Inner.size(), 2u);
  std::set<std::string> Names;
  for (const TraceNode *N : Inner) {
    Names.insert(N->Name);
    EXPECT_EQ(N->Calls.load(), uint64_t(Threads * Rounds)) << N->Name;
    EXPECT_TRUE(N->children().empty());
  }
  EXPECT_EQ(Names, (std::set<std::string>{"left", "right"}));
}

TEST(TraceScope, ResetDetachesOpenPhasesWithoutFreeingThem) {
  MetricsRegistry Reg;
  {
    TraceScope Open(Reg, "open");
    Reg.reset();
    EXPECT_TRUE(Reg.traceRoot().children().empty());
    // The open scope still closes into its (detached) node, and a scope
    // opened after the reset starts a fresh top-level phase.
  }
  { TraceScope After(Reg, "after"); }
  std::vector<const TraceNode *> Top = Reg.traceRoot().children();
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0]->Name, "after");
}

// A stage scope feeds the stage's histograms over the thread's own CPU
// clock: a sibling spins through the whole stage while the stage itself
// sleeps. A process-wide clock would charge the spinner's CPU to it.
TEST(TraceScope, StageCpuClockExcludesSiblingThreads) {
  std::atomic<bool> Started{false}, Stop{false};
  std::thread Spinner([&] {
    Started.store(true);
    volatile uint64_t Spins = 0;
    while (!Stop.load(std::memory_order_relaxed))
      Spins = Spins + 1;
  });
  while (!Started.load())
    std::this_thread::yield();
  Stage Sleep("test.sibling_spin");
  {
    TraceScope Scope(Sleep);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Stop.store(true);
  Spinner.join();
  // The handles are the registry's series under the stage's names.
  auto &Reg = MetricsRegistry::global();
  Histogram &Wall =
      Reg.histogram("test.sibling_spin.wall.seconds", timeBounds());
  Histogram &Cpu = Reg.histogram("test.sibling_spin.cpu.seconds", timeBounds());
  EXPECT_EQ(&Wall, &Sleep.Wall);
  EXPECT_EQ(&Cpu, &Sleep.Cpu);
  ASSERT_EQ(Wall.count(), 1u);
  ASSERT_EQ(Cpu.count(), 1u);
  EXPECT_GE(Wall.sum(), 0.045);
  EXPECT_GE(Cpu.sum(), 0.0);
  EXPECT_LT(Cpu.sum(), 0.5 * Wall.sum());
  // The stage is also a phase of the trace tree.
  const TraceNode *Node = Reg.traceRoot().findChild("test.sibling_spin");
  ASSERT_NE(Node, nullptr);
  EXPECT_EQ(Node->Calls.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Phase profile (folded stacks)
//===----------------------------------------------------------------------===//

TEST(Profiler, BuiltTreeRendersFoldedLines) {
  MetricsRegistry Reg;
  TraceNode &Train = Reg.traceChild(Reg.traceRoot(), "train");
  Train.Calls = 1;
  Train.Seconds = 0.010;
  TraceNode &Parse = Reg.traceChild(Train, "parse");
  Parse.Calls = 4;
  Parse.Seconds = 0.003;
  TraceNode &Chunk = Reg.traceChild(Parse, "chunk");
  Chunk.Calls = 32;
  Chunk.Seconds = 0.001;
  // Children on pool workers can sum past their parent: "pool" has 5 ms
  // of its own yet 9 ms of children, so its self time clamps at 0.
  TraceNode &Pool = Reg.traceChild(Train, "pool");
  Pool.Calls = 2;
  Pool.Seconds = 0.005;
  TraceNode &Work = Reg.traceChild(Pool, "work");
  Work.Calls = 8;
  Work.Seconds = 0.009;
  // A still-open phase has no closed calls and no time yet.
  Reg.traceChild(Reg.traceRoot(), "serve");
  EXPECT_EQ(&Reg.traceChild(Train, "parse"), &Parse); // Found, not added.

  std::vector<ProfileLine> Lines = profileLines(Reg.traceRoot());
  ASSERT_EQ(Lines.size(), 6u);
  auto Expect = [&](size_t I, const char *Stack, uint64_t Calls,
                    uint64_t SelfUs) {
    EXPECT_EQ(Lines[I].Stack, Stack) << I;
    EXPECT_EQ(Lines[I].Calls, Calls) << Stack;
    EXPECT_EQ(Lines[I].SelfMicros, SelfUs) << Stack;
  };
  // Depth first, children in creation order; 10 - 3 - 5 = 2 ms of
  // train's own, 3 - 1 = 2 ms of parse's.
  Expect(0, "train", 1, 2000);
  Expect(1, "train;parse", 4, 2000);
  Expect(2, "train;parse;chunk", 32, 1000);
  Expect(3, "train;pool", 2, 0);
  Expect(4, "train;pool;work", 8, 9000);
  Expect(5, "serve", 0, 0);
  EXPECT_EQ(foldedStacks(Lines), "train 2000\n"
                                 "train;parse 2000\n"
                                 "train;parse;chunk 1000\n"
                                 "train;pool 0\n"
                                 "train;pool;work 9000\n"
                                 "serve 0\n");
  EXPECT_EQ(foldedStacks({}), "");
}

TEST(Profiler, NestedScopesProduceFoldedStacks) {
  MetricsRegistry Reg;
  for (int I = 0; I < 3; ++I) {
    TraceScope Outer(Reg, "pp.nest.outer");
    TraceScope Inner(Reg, "pp.nest.inner");
  }
  std::vector<ProfileLine> Lines = profileLines(Reg.traceRoot());
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].Stack, "pp.nest.outer");
  EXPECT_EQ(Lines[1].Stack, "pp.nest.outer;pp.nest.inner");
  EXPECT_EQ(Lines[0].Calls, 3u);
  EXPECT_EQ(Lines[1].Calls, 3u);
}

TEST(Profiler, WriteFoldedRoundTrips) {
  MetricsRegistry Reg;
  {
    TraceScope Phase(Reg, "pp.write");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string Folded = foldedStacks(profileLines(Reg.traceRoot()));
  // `stack self_us` lines, flamegraph.pl-compatible.
  ASSERT_EQ(Folded.rfind("pp.write ", 0), 0u) << Folded;
  EXPECT_GE(std::stoull(Folded.substr(Folded.find(' ') + 1)), 1000u);
  EXPECT_EQ(Folded.back(), '\n');

  const std::string Path = "telemetry_test_folded.tmp";
  ASSERT_TRUE(writeFileAtomic(Path, Folded));
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Folded);
  In.close();
  std::remove(Path.c_str());

  EXPECT_FALSE(writeFileAtomic("/nonexistent-dir/folded.txt", Folded));
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(Json, EscapeSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

namespace {
/// Minimal structural validator: checks balanced braces/brackets outside
/// strings and that escapes inside strings are legal.
bool isStructurallyValidJson(const std::string &S) {
  int Depth = 0;
  bool InString = false;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (InString) {
      if (C == '\\') {
        if (I + 1 >= S.size())
          return false;
        char N = S[I + 1];
        if (N != '"' && N != '\\' && N != '/' && N != 'b' && N != 'f' &&
            N != 'n' && N != 'r' && N != 't' && N != 'u')
          return false;
        ++I;
      } else if (C == '"') {
        InString = false;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        return false; // raw control char inside a string
      }
    } else {
      if (C == '"')
        InString = true;
      else if (C == '{' || C == '[')
        ++Depth;
      else if (C == '}' || C == ']') {
        if (--Depth < 0)
          return false;
      }
    }
  }
  return Depth == 0 && !InString;
}
} // namespace

TEST(Json, SnapshotIsStructurallyValidAndStable) {
  MetricsRegistry Reg;
  Reg.counter("parse.files.ok").add(3);
  Reg.counter("parse.fail.reason.expected \"}\"\nbefore end").inc();
  Reg.gauge("crf.features").set(1234.5);
  Histogram &H = Reg.histogram("paths.length", linearBounds(1, 4));
  H.observe(2);
  H.observe(3);
  {
    TraceScope Train(Reg, "train");
    TraceScope Extract(Reg, "extract");
  }

  std::ostringstream A, B;
  Reg.writeJson(A);
  Reg.writeJson(B);
  EXPECT_EQ(A.str(), B.str()); // stable output
  EXPECT_TRUE(isStructurallyValidJson(A.str()));
  EXPECT_NE(A.str().find("\"schema\":\"pigeon.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(A.str().find("\"parse.files.ok\":3"), std::string::npos);
  EXPECT_NE(A.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(A.str().find("\"gauges\""), std::string::npos);
  EXPECT_NE(A.str().find("\"histograms\""), std::string::npos);
  EXPECT_NE(A.str().find("\"trace\""), std::string::npos);
  EXPECT_NE(A.str().find("\"p50\""), std::string::npos);
}

TEST(Json, NonFiniteAndEmptyValuesSerializeAsNull) {
  MetricsRegistry Reg;
  Reg.gauge("speedup").set(std::numeric_limits<double>::quiet_NaN());
  Reg.gauge("ratio").set(std::numeric_limits<double>::infinity());
  Reg.histogram("idle.wall.seconds", timeBounds()); // never observed
  std::ostringstream OS;
  Reg.writeJson(OS);
  std::string S = OS.str();
  EXPECT_TRUE(isStructurallyValidJson(S));
  // Bare NaN / Infinity are not JSON; they must degrade to null.
  EXPECT_NE(S.find("\"speedup\":null"), std::string::npos);
  EXPECT_NE(S.find("\"ratio\":null"), std::string::npos);
  // An empty histogram has no meaningful min/percentiles — null, not a
  // fake zero a reader would mistake for a measurement.
  EXPECT_NE(S.find("\"min\":null"), std::string::npos);
  EXPECT_NE(S.find("\"p50\":null"), std::string::npos);
  // The whole snapshot must still satisfy the strict parser.
  std::string Error;
  EXPECT_TRUE(json::parse(S, &Error).has_value()) << Error;
}

TEST(Json, EmptyRegistrySnapshot) {
  MetricsRegistry Reg;
  std::ostringstream OS;
  Reg.writeJson(OS);
  EXPECT_TRUE(isStructurallyValidJson(OS.str()));
  EXPECT_NE(OS.str().find("pigeon.metrics.v1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tables
//===----------------------------------------------------------------------===//

TEST(Tables, PrintTableAndTraceTableRender) {
  MetricsRegistry Reg;
  Reg.counter("parse.files.ok").add(7);
  Reg.histogram("paths.length", linearBounds(1, 4)).observe(2);
  {
    TraceScope Train(Reg, "train");
    TraceScope Extract(Reg, "extract");
  }
  std::ostringstream OS;
  Reg.printTable(OS);
  Reg.printTraceTable(OS);
  EXPECT_NE(OS.str().find("parse.files.ok"), std::string::npos);
  EXPECT_NE(OS.str().find("train"), std::string::npos);
  EXPECT_NE(OS.str().find("extract"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition
//===----------------------------------------------------------------------===//

namespace {

/// True when \p Name matches the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
bool isPromName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (size_t I = 0; I < Name.size(); ++I) {
    char Ch = Name[I];
    bool Alpha = (Ch >= 'a' && Ch <= 'z') || (Ch >= 'A' && Ch <= 'Z') ||
                 Ch == '_' || Ch == ':';
    bool Digit = Ch >= '0' && Ch <= '9';
    if (!(Alpha || (Digit && I > 0)))
      return false;
  }
  return true;
}

/// True when \p Value is a legal exposition-format sample value: the
/// non-finite spellings or a fully-consumed decimal.
bool isPromValue(const std::string &Value) {
  if (Value == "NaN" || Value == "+Inf" || Value == "-Inf")
    return true;
  if (Value.empty())
    return false;
  char *End = nullptr;
  std::strtod(Value.c_str(), &End);
  return End && *End == '\0';
}

/// Line-by-line grammar check of an exposition document: every line is a
/// `# HELP` / `# TYPE` comment or `name[{labels}] value`.
::testing::AssertionResult isValidExposition(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  int N = 0;
  while (std::getline(In, Line)) {
    ++N;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0)
      continue;
    if (Line.rfind("#", 0) == 0)
      return ::testing::AssertionFailure()
             << "line " << N << ": unknown comment form: " << Line;
    size_t Space = Line.rfind(' ');
    if (Space == std::string::npos || Space == 0)
      return ::testing::AssertionFailure()
             << "line " << N << ": no value separator: " << Line;
    std::string Series = Line.substr(0, Space);
    std::string Value = Line.substr(Space + 1);
    std::string Name = Series;
    size_t Brace = Series.find('{');
    if (Brace != std::string::npos) {
      if (Series.back() != '}')
        return ::testing::AssertionFailure()
               << "line " << N << ": unterminated labels: " << Line;
      Name = Series.substr(0, Brace);
      std::string Labels = Series.substr(Brace + 1,
                                         Series.size() - Brace - 2);
      // Each label is name="value" with escaped quotes inside.
      if (Labels.find('=') == std::string::npos)
        return ::testing::AssertionFailure()
               << "line " << N << ": malformed labels: " << Line;
    }
    if (!isPromName(Name))
      return ::testing::AssertionFailure()
             << "line " << N << ": bad metric name: " << Line;
    if (!isPromValue(Value))
      return ::testing::AssertionFailure()
             << "line " << N << ": bad sample value: " << Line;
  }
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(Prometheus, MetricNameSanitization) {
  EXPECT_EQ(promMetricName("serve.request.seconds"),
            "serve_request_seconds");
  EXPECT_EQ(promMetricName("already_fine"), "already_fine");
  EXPECT_EQ(promMetricName("name:with:colons"), "name:with:colons");
  EXPECT_EQ(promMetricName("weird-name+x"), "weird_name_x");
  EXPECT_EQ(promMetricName("9lives"), "_9lives"); // No leading digit.
  EXPECT_EQ(promMetricName(""), "_");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(promEscapeLabel("plain"), "plain");
  EXPECT_EQ(promEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(promEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabel("line\nbreak"), "line\\nbreak");
}

TEST(Prometheus, CountersGetTotalSuffixExactlyOnce) {
  MetricsRegistry Reg;
  Reg.counter("serve.requests").add(5);
  Reg.counter("bytes.total").add(7); // Sanitizes to an existing _total.
  std::string S = Reg.prometheusSnapshot();
  EXPECT_NE(S.find("serve_requests_total 5\n"), std::string::npos);
  EXPECT_NE(S.find("# TYPE serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(S.find("bytes_total 7\n"), std::string::npos);
  EXPECT_EQ(S.find("bytes_total_total"), std::string::npos);
}

TEST(Prometheus, HistogramBucketsAreCumulative) {
  MetricsRegistry Reg;
  Histogram &H = Reg.histogram("paths.length", linearBounds(1, 3));
  H.observe(0.5); // le=1
  H.observe(1.5); // le=2
  H.observe(2.5); // le=3
  H.observe(99);  // overflow
  std::string S = Reg.prometheusSnapshot();
  EXPECT_NE(S.find("# TYPE paths_length histogram\n"), std::string::npos);
  EXPECT_NE(S.find("paths_length_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(S.find("paths_length_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(S.find("paths_length_bucket{le=\"3\"} 3\n"), std::string::npos);
  // The +Inf bucket is cumulative over everything and equals _count.
  EXPECT_NE(S.find("paths_length_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(S.find("paths_length_count 4\n"), std::string::npos);
  EXPECT_NE(S.find("paths_length_sum "), std::string::npos);
}

TEST(Prometheus, WindowedExportsAsSummaryWithRate) {
  MetricsRegistry Reg;
  WindowedHistogram &W =
      Reg.windowed("serve.request.seconds", linearBounds(1, 4), 3, 10.0);
  W.observeAt(5.0, 2.0);
  std::string S = Reg.prometheusSnapshot();
  EXPECT_NE(S.find("# TYPE serve_request_seconds_window summary\n"),
            std::string::npos);
  EXPECT_NE(S.find("serve_request_seconds_window{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(S.find("serve_request_seconds_window{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(S.find("serve_request_seconds_window_count "),
            std::string::npos);
  EXPECT_NE(S.find("serve_request_seconds_window_rate_per_sec "),
            std::string::npos);
  EXPECT_TRUE(isValidExposition(S));
}

TEST(Prometheus, NonFiniteValuesUseExpositionSpellings) {
  MetricsRegistry Reg;
  Reg.gauge("nan.gauge").set(std::numeric_limits<double>::quiet_NaN());
  Reg.gauge("inf.gauge").set(std::numeric_limits<double>::infinity());
  // An empty window has NaN percentiles — legal exposition values.
  Reg.windowed("empty.window", linearBounds(1, 2));
  std::string S = Reg.prometheusSnapshot();
  EXPECT_NE(S.find("nan_gauge NaN\n"), std::string::npos);
  EXPECT_NE(S.find("inf_gauge +Inf\n"), std::string::npos);
  EXPECT_NE(S.find("empty_window_window{quantile=\"0.99\"} NaN\n"),
            std::string::npos);
  EXPECT_TRUE(isValidExposition(S));
}

TEST(Prometheus, FullSnapshotPassesGrammarCheckAndIsStable) {
  MetricsRegistry Reg;
  Reg.counter("parse.files.ok").add(3);
  Reg.gauge("crf.features").set(1234.5);
  Histogram &H = Reg.histogram("paths.length", linearBounds(1, 4));
  H.observe(2);
  Reg.windowed("serve.request.seconds", timeBounds()).observeAt(1.0, 0.01);
  std::string A = Reg.prometheusSnapshot();
  std::string B = Reg.prometheusSnapshot();
  EXPECT_EQ(A, B);
  EXPECT_TRUE(isValidExposition(A));
  // Every series carries HELP/TYPE headers.
  EXPECT_NE(A.find("# HELP parse_files_ok_total "), std::string::npos);
  EXPECT_NE(A.find("# HELP crf_features "), std::string::npos);
  EXPECT_NE(A.find("# TYPE crf_features gauge\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Atomic file writes
//===----------------------------------------------------------------------===//

TEST(Files, WriteFileAtomicWritesAndReplaces) {
  const std::string Path = "telemetry_test_atomic.tmp.json";
  ASSERT_TRUE(writeFileAtomic(Path, "first\n"));
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    EXPECT_EQ(Buf.str(), "first\n");
  }
  // No stray staging file is left behind.
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  // Replacement is in-place and complete.
  ASSERT_TRUE(writeFileAtomic(Path, "second\n"));
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    EXPECT_EQ(Buf.str(), "second\n");
  }
  std::remove(Path.c_str());
}

TEST(Files, WriteFileAtomicFailsCleanlyOnBadPath) {
  EXPECT_FALSE(writeFileAtomic("/nonexistent-dir/sub/metrics.json", "x"));
}

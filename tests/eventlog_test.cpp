//===- eventlog_test.cpp - Unit tests for support/EventLog -----------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Json.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pigeon;
using namespace pigeon::telemetry;

namespace {

/// Parses every line of \p Text as one JSON object; fails the test on any
/// malformed line.
std::vector<json::Value> parseLines(const std::string &Text) {
  std::vector<json::Value> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::string Error;
    std::optional<json::Value> V = json::parse(Line, &Error);
    EXPECT_TRUE(V.has_value()) << Error << " in: " << Line;
    if (V)
      Out.push_back(std::move(*V));
  }
  return Out;
}

std::string eventOf(const json::Value &V) {
  const json::Value *E = V.find("event");
  return E ? E->str() : "";
}

} // namespace

TEST(EventLog, DisabledLogIsANoOp) {
  EventLog Log;
  EXPECT_FALSE(Log.enabled());
  // Emissions on a closed log must be harmless.
  Log.record("prediction", {{"gold", jsonString("x")}});
  Log.spanBegin(1, 0, "parse");
  Log.spanEnd(1, 0, "parse", 0.1, 0.1);
  Log.close();
}

TEST(EventLog, StreamFramingAndFieldRendering) {
  EventLog Log;
  std::ostringstream OS;
  Log.attach(OS);
  EXPECT_TRUE(Log.enabled());
  Log.record("prediction", {{"gold", jsonString("do\ne")},
                            {"score", jsonNumber(2.5)},
                            {"correct", "true"}});
  Log.close();
  EXPECT_FALSE(Log.enabled());

  std::vector<json::Value> Lines = parseLines(OS.str());
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(eventOf(Lines.front()), "stream.begin");
  EXPECT_EQ(Lines.front().find("schema")->str(), "pigeon.events.v2");
  EXPECT_EQ(eventOf(Lines.back()), "stream.end");
  // stream.end counts the records between the frame lines.
  EXPECT_DOUBLE_EQ(Lines.back().find("records")->number(), 1.0);

  const json::Value &P = Lines[1];
  EXPECT_EQ(eventOf(P), "prediction");
  EXPECT_EQ(P.find("gold")->str(), "do\ne"); // escape round-trips
  EXPECT_DOUBLE_EQ(P.find("score")->number(), 2.5);
  EXPECT_TRUE(P.find("correct")->boolean());
  EXPECT_GE(P.find("ts")->number(), 0.0);
  EXPECT_GE(P.find("tid")->number(), 0.0);
}

TEST(EventLog, CloseIsIdempotent) {
  EventLog Log;
  std::ostringstream OS;
  Log.attach(OS);
  Log.record("x", {});
  Log.close();
  Log.close();
  std::vector<json::Value> Lines = parseLines(OS.str());
  size_t Ends = 0;
  for (const json::Value &V : Lines)
    Ends += eventOf(V) == "stream.end";
  EXPECT_EQ(Ends, 1u);
}

TEST(EventLog, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(jsonNumber(-1.0 / 0.0), "null");
  EXPECT_EQ(jsonNumber(0.25), "0.25");
}

TEST(EventLog, TraceScopesEmitNestedSpans) {
  EventLog &Log = EventLog::global();
  std::ostringstream OS;
  Log.attach(OS);
  {
    TraceScope Train("el.train");
    { TraceScope Extract("el.extract"); }
    { TraceScope Epoch("el.epoch"); }
  }
  Log.close();

  std::vector<json::Value> Lines = parseLines(OS.str());
  // Collect span.begin records by name; check parenting via span ids.
  uint64_t TrainSpan = 0;
  std::vector<std::pair<std::string, uint64_t>> Parents;
  for (const json::Value &V : Lines) {
    if (eventOf(V) != "span.begin")
      continue;
    std::string Name = V.find("name")->str();
    if (Name == "el.train")
      TrainSpan = static_cast<uint64_t>(V.find("span")->number());
    Parents.emplace_back(Name,
                         static_cast<uint64_t>(V.find("parent")->number()));
  }
  ASSERT_EQ(Parents.size(), 3u);
  ASSERT_NE(TrainSpan, 0u);
  for (const auto &[Name, Parent] : Parents) {
    if (Name == "el.train")
      EXPECT_EQ(Parent, 0u) << "top-level phase has no parent span";
    else
      EXPECT_EQ(Parent, TrainSpan) << Name << " must nest under el.train";
  }
  // Every span.end carries wall time and an RSS sample.
  for (const json::Value &V : Lines) {
    if (eventOf(V) != "span.end")
      continue;
    EXPECT_GE(V.find("wall")->number(), 0.0);
    ASSERT_NE(V.find("rss_kb"), nullptr);
  }
}

TEST(EventLog, ParallelChunksNestUnderSpawningStage) {
  EventLog &Log = EventLog::global();
  std::ostringstream OS;
  Log.attach(OS);
  std::atomic<uint64_t> Sum{0};
  {
    TraceScope Stage("el.infer");
    parallel::parallelFor(64, 4, [&](size_t I) { Sum += I; });
  }
  Log.close();
  EXPECT_EQ(Sum.load(), 64u * 63 / 2);

  std::vector<json::Value> Lines = parseLines(OS.str());
  uint64_t StageSpan = 0;
  for (const json::Value &V : Lines)
    if (eventOf(V) == "span.begin" && V.find("name")->str() == "el.infer")
      StageSpan = static_cast<uint64_t>(V.find("span")->number());
  ASSERT_NE(StageSpan, 0u);

  size_t Chunks = 0;
  std::set<uint64_t> Tids;
  for (const json::Value &V : Lines) {
    if (eventOf(V) != "span.begin" ||
        V.find("name")->str() != "parallel.chunk")
      continue;
    ++Chunks;
    // Workers inherit the spawner's context: every chunk span is a child
    // of the stage span even when it ran on a pool thread.
    EXPECT_EQ(static_cast<uint64_t>(V.find("parent")->number()), StageSpan);
    // Chunk spans carry their index range.
    ASSERT_NE(V.find("chunk"), nullptr);
    ASSERT_NE(V.find("begin"), nullptr);
    ASSERT_NE(V.find("end"), nullptr);
    Tids.insert(static_cast<uint64_t>(V.find("tid")->number()));
  }
  EXPECT_GT(Chunks, 0u);
  // tid is a small per-thread id; with 4 executors there are at most 4.
  EXPECT_LE(Tids.size(), 4u);
}

TEST(EventLog, ConcurrentRecordsStayLineAtomic) {
  EventLog Log;
  std::ostringstream OS;
  Log.attach(OS);
  constexpr int Threads = 8, PerThread = 200;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I)
        Log.record("tick", {{"t", std::to_string(T)}});
    });
  for (std::thread &Th : Pool)
    Th.join();
  Log.close();

  // Every line parses — interleaved but never torn — and all records
  // plus the two frame lines are present.
  std::vector<json::Value> Lines = parseLines(OS.str());
  EXPECT_EQ(Lines.size(), 2u + Threads * PerThread);
  std::set<uint64_t> Tids;
  for (const json::Value &V : Lines)
    if (eventOf(V) == "tick")
      Tids.insert(static_cast<uint64_t>(V.find("tid")->number()));
  EXPECT_EQ(Tids.size(), static_cast<size_t>(Threads));
}

//===----------------------------------------------------------------------===//
// Flight recorder ring
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, RingAloneEnablesTheLogAndKeepsTheLastN) {
  EventLog Log;
  Log.enableRing(4);
  EXPECT_TRUE(Log.enabled()); // No stream attached, yet records flow.
  EXPECT_TRUE(Log.ringEnabled());
  EXPECT_EQ(Log.ringCapacity(), 4u);

  for (int I = 0; I < 10; ++I)
    Log.record("tick", {{"i", std::to_string(I)}});
  EXPECT_EQ(Log.ringTotal(), 10u);

  // Wraparound keeps exactly the last 4, oldest first.
  std::vector<std::string> Lines = Log.ringSnapshot();
  ASSERT_EQ(Lines.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    std::optional<json::Value> V = json::parse(Lines[I]);
    ASSERT_TRUE(V.has_value()) << Lines[I];
    EXPECT_DOUBLE_EQ(V->find("i")->number(), static_cast<double>(6 + I));
  }

  Log.disableRing();
  EXPECT_FALSE(Log.enabled());
  EXPECT_TRUE(Log.ringSnapshot().empty());
}

TEST(FlightRecorder, RingOnlyRecordsStampTsFromWhenTheRingOpened) {
  // With no stream open, the ring is the log's first sink: `ts` counts
  // from when it opened, not from the steady clock's origin (boot).
  const auto Before = std::chrono::steady_clock::now();
  EventLog Log;
  Log.enableRing(4);
  Log.record("tick", {});
  const double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Before)
          .count();
  std::optional<json::Value> V = json::parse(Log.ringSnapshot().at(0));
  ASSERT_TRUE(V.has_value());
  EXPECT_GE(V->find("ts")->number(), 0.0);
  EXPECT_LE(V->find("ts")->number(), Elapsed + 1e-6);
}

TEST(FlightRecorder, PartialRingBeforeWraparound) {
  EventLog Log;
  Log.enableRing(8);
  Log.record("a", {});
  Log.record("b", {});
  std::vector<std::string> Lines = Log.ringSnapshot();
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_NE(Lines[0].find("\"event\":\"a\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"event\":\"b\""), std::string::npos);
}

TEST(FlightRecorder, DumpRingWritesWellFormedJsonl) {
  const std::string Path = ::testing::TempDir() + "flightrec_dump.jsonl";
  EventLog Log;
  Log.enableRing(3);
  EXPECT_FALSE(Log.dumpRing(Path)) << "empty ring must not write a file";
  for (int I = 0; I < 5; ++I)
    Log.record("tick", {{"i", std::to_string(I)}});
  ASSERT_TRUE(Log.dumpRing(Path));

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::vector<json::Value> Lines = parseLines(Buffer.str());
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_DOUBLE_EQ(Lines.front().find("i")->number(), 2.0);
  EXPECT_DOUBLE_EQ(Lines.back().find("i")->number(), 4.0);
  std::remove(Path.c_str());
}

TEST(FlightRecorder, RingCapturesAlongsideAnAttachedStream) {
  EventLog Log;
  std::ostringstream OS;
  Log.attach(OS);
  Log.enableRing(16);
  Log.record("both", {{"k", jsonString("v")}});
  Log.close(); // Ends the stream; the ring survives.
  ASSERT_EQ(Log.ringSnapshot().size(), 1u);
  EXPECT_NE(Log.ringSnapshot()[0].find("\"event\":\"both\""),
            std::string::npos);
  EXPECT_NE(OS.str().find("\"event\":\"both\""), std::string::npos);
  Log.disableRing();
}

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Emits one record flagged for the slow log.
void recordSlow(EventLog &Log, int I) {
  Log.record("tick",
             {{"i", std::to_string(I)}, {"pad", jsonString("xxxxxxxxxxxx")}},
             /*Slow=*/true);
}

} // namespace

//===----------------------------------------------------------------------===//
// Slow log: the byte-capped sink of records flagged slow
//===----------------------------------------------------------------------===//

TEST(SlowLogRing, DisabledAppendIsANoOp) {
  EventLog Log;
  recordSlow(Log, 0);
  EXPECT_FALSE(Log.enabled());
  EXPECT_FALSE(Log.slowLogEnabled());
  EXPECT_TRUE(Log.slowLogSnapshot().empty());
  EXPECT_TRUE(Log.flush());        // Nothing to write is not a failure.
  EXPECT_TRUE(Log.closeSlowLog()); // Neither is closing a closed log.
}

TEST(SlowLogRing, ByteCapEvictsOldestFirst) {
  EventLog Log;
  const std::string Path = ::testing::TempDir() + "slowlog_cap.jsonl";
  Log.openSlowLog(Path, /*MaxBytes=*/200);
  EXPECT_TRUE(Log.enabled()); // The slow log alone is a sink.
  for (int I = 0; I < 10; ++I)
    recordSlow(Log, I);
  std::vector<std::string> Lines = Log.slowLogSnapshot();
  ASSERT_FALSE(Lines.empty());
  ASSERT_LT(Lines.size(), 10u);
  size_t Bytes = 0;
  for (const std::string &Line : Lines)
    Bytes += Line.size() + 1;
  EXPECT_LE(Bytes, 200u);
  // The newest entry is always retained; the survivors are the tail.
  EXPECT_NE(Lines.back().find("\"i\":9"), std::string::npos);
  EXPECT_NE(Lines.front().find("\"i\":" + std::to_string(10 - Lines.size())),
            std::string::npos);
  Log.closeSlowLog();
  std::remove(Path.c_str());
}

TEST(SlowLogRing, OversizedSingleEntryIsStillKept) {
  EventLog Log;
  const std::string Path = ::testing::TempDir() + "slowlog_big.jsonl";
  Log.openSlowLog(Path, /*MaxBytes=*/8);
  recordSlow(Log, 0);
  EXPECT_EQ(Log.slowLogSnapshot().size(), 1u);
  Log.closeSlowLog();
  std::remove(Path.c_str());
}

TEST(SlowLogRing, FlushRewritesTheFileAtomically) {
  EventLog Log;
  const std::string Path = ::testing::TempDir() + "slowlog_flush.jsonl";
  std::remove(Path.c_str());
  Log.openSlowLog(Path);
  Log.record("fast", {}); // Not flagged: the slow log never sees it.
  recordSlow(Log, 1);
  ASSERT_TRUE(Log.flush());
  std::string First = slurp(Path);
  EXPECT_EQ(First.find("fast"), std::string::npos);
  EXPECT_EQ(parseLines(First).size(), 1u);

  // A second flush with no new entries is a no-op success; appending
  // again grows the same file on the next flush.
  ASSERT_TRUE(Log.flush());
  recordSlow(Log, 2);
  ASSERT_TRUE(Log.flush());
  std::string Second = slurp(Path);
  EXPECT_GT(Second.size(), First.size());
  EXPECT_NE(Second.find("\"i\":2"), std::string::npos);

  // closeSlowLog() flushes and disables.
  recordSlow(Log, 3);
  EXPECT_TRUE(Log.closeSlowLog());
  EXPECT_FALSE(Log.slowLogEnabled());
  EXPECT_EQ(parseLines(slurp(Path)).size(), 3u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Segment rotation
//===----------------------------------------------------------------------===//

TEST(EventLogRotation, RotatesIntoACappedPreviousSegment) {
  const std::string Path = ::testing::TempDir() + "rotating_trace.jsonl";
  std::remove(Path.c_str());
  std::remove((Path + ".1").c_str());

  EventLog Log;
  ASSERT_TRUE(Log.open(Path));
  Log.setRotation(2048); // Tiny cap: a few dozen records per segment.
  EXPECT_EQ(Log.segmentIndex(), 0u);
  for (int I = 0; I < 200; ++I)
    Log.record("tick", {{"i", std::to_string(I)},
                        {"pad", jsonString(std::string(32, 'x'))}});
  EXPECT_GT(Log.segmentIndex(), 0u);
  Log.close();

  // Both segments exist, parse line-by-line, and are framed: the rotated
  // segment ends with a stream.end trailer, the live one begins with a
  // stream.begin carrying its segment index.
  std::vector<json::Value> Prev = parseLines(slurp(Path + ".1"));
  std::vector<json::Value> Live = parseLines(slurp(Path));
  ASSERT_GE(Prev.size(), 2u);
  ASSERT_GE(Live.size(), 2u);
  EXPECT_EQ(eventOf(Prev.back()), "stream.end");
  EXPECT_EQ(eventOf(Live.front()), "stream.begin");
  EXPECT_EQ(eventOf(Live.back()), "stream.end");
  EXPECT_GT(Live.front().find("segment")->number(), 0.0);

  // The previous segment's payload stays under the cap (the trailer may
  // straddle it); records are contiguous mod rotation — the first live
  // payload record follows the last rotated one.
  uint64_t LastPrev = 0, FirstLive = 0;
  for (const json::Value &V : Prev)
    if (eventOf(V) == "tick")
      LastPrev = static_cast<uint64_t>(V.find("i")->number());
  for (const json::Value &V : Live)
    if (eventOf(V) == "tick") {
      FirstLive = static_cast<uint64_t>(V.find("i")->number());
      break;
    }
  EXPECT_EQ(FirstLive, LastPrev + 1);

  std::remove(Path.c_str());
  std::remove((Path + ".1").c_str());
}

TEST(EventLogRotation, UnrotatedStreamIsByteIdenticalToUncapped) {
  // A cap the stream never reaches must not change the output shape.
  const std::string Path = ::testing::TempDir() + "uncapped_trace.jsonl";
  EventLog Log;
  ASSERT_TRUE(Log.open(Path));
  Log.setRotation(64 << 20);
  for (int I = 0; I < 10; ++I)
    Log.record("tick", {{"i", std::to_string(I)}});
  Log.close();
  EXPECT_EQ(Log.segmentIndex(), 0u);
  std::vector<json::Value> Lines = parseLines(slurp(Path));
  EXPECT_EQ(Lines.size(), 12u); // begin + 10 + end.
  std::remove(Path.c_str());
}

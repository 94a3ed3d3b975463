//===- trajectory_test.cpp - Unit tests for support/Trajectory -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Trajectory.h"

#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace pigeon;
using namespace pigeon::bench;

namespace {

/// A realistic sidecar: a private registry rendered through the real
/// pigeon.metrics.v1 writer, then parsed back — the exact path
/// bench_report takes.
json::Value sidecarFor(double ParseSumSeconds, int ParseCount,
                       double PairsPerSec, double Accuracy) {
  telemetry::MetricsRegistry Reg;
  Reg.counter("parse.files.ok").add(ParseCount);
  Reg.gauge("sgns.pairs_per_sec").set(PairsPerSec);
  Reg.gauge("pipeline.extract.speedup").set(3.1);
  Reg.gauge("eval.vars.accuracy").set(Accuracy);
  Reg.gauge("serve.latency_ms.p99.concurrent").set(42.5);
  Reg.gauge("serve.latency_ms.p99.single").set(30.25);
  Reg.gauge("process.rss.peak.kb").set(123456);
  Reg.gauge("parallel.bench.cores").set(4);
  Reg.gauge("crf.features").set(999); // neither throughput nor accuracy
  telemetry::Histogram &H =
      Reg.histogram("parse.wall.seconds", telemetry::timeBounds());
  for (int I = 0; I < ParseCount; ++I)
    H.observe(ParseSumSeconds / ParseCount);
  Reg.histogram("paths.length", telemetry::linearBounds(1, 9)).observe(3);
  std::ostringstream OS;
  Reg.writeJson(OS);
  std::optional<json::Value> Doc = json::parse(OS.str());
  EXPECT_TRUE(Doc.has_value());
  return std::move(*Doc);
}

} // namespace

TEST(FoldSidecar, AppliesTheFoldingRules) {
  BenchRecord Rec = foldSidecar("bench_x", sidecarFor(2.0, 8, 5000, 0.82));

  EXPECT_EQ(Rec.Bench, "bench_x");
  // per_sec / .speedup gauges plus the derived stage throughput.
  ASSERT_EQ(Rec.Throughput.count("sgns.pairs_per_sec"), 1u);
  EXPECT_DOUBLE_EQ(Rec.Throughput["sgns.pairs_per_sec"], 5000.0);
  EXPECT_EQ(Rec.Throughput.count("pipeline.extract.speedup"), 1u);
  ASSERT_EQ(Rec.Throughput.count("parse.per_sec"), 1u);
  EXPECT_NEAR(Rec.Throughput["parse.per_sec"], 8.0 / 2.0, 1e-9);
  // Only *.wall.seconds histograms become phases.
  ASSERT_EQ(Rec.Phases.count("parse"), 1u);
  EXPECT_EQ(Rec.Phases.count("paths.length"), 0u);
  EXPECT_EQ(Rec.Phases["parse"].Count, 8u);
  EXPECT_NEAR(Rec.Phases["parse"].Sum, 2.0, 1e-9);
  EXPECT_GT(Rec.Phases["parse"].P50, 0.0);
  // Accuracy gauges and the RSS gauge land in their own slots.
  ASSERT_EQ(Rec.Accuracy.count("eval.vars.accuracy"), 1u);
  EXPECT_DOUBLE_EQ(Rec.Accuracy["eval.vars.accuracy"], 0.82);
  // latency_ms gauges fold into Latency, not Throughput — the gate
  // direction differs.
  ASSERT_EQ(Rec.Latency.count("serve.latency_ms.p99.concurrent"), 1u);
  EXPECT_DOUBLE_EQ(Rec.Latency["serve.latency_ms.p99.concurrent"], 42.5);
  EXPECT_EQ(Rec.Latency.count("serve.latency_ms.p99.single"), 1u);
  EXPECT_EQ(Rec.Throughput.count("serve.latency_ms.p99.concurrent"), 0u);
  EXPECT_EQ(Rec.RssPeakKb, 123456u);
  EXPECT_EQ(Rec.Cores, 4u);
  // The cores gauge is bench metadata, not a throughput metric.
  EXPECT_EQ(Rec.Throughput.count("parallel.bench.cores"), 0u);
  // Unrelated gauges fold nowhere.
  EXPECT_EQ(Rec.Throughput.count("crf.features"), 0u);
  EXPECT_EQ(Rec.Accuracy.count("crf.features"), 0u);
}

TEST(FoldSidecar, OmitsEmptySeries) {
  // After MetricsRegistry::reset() a phase histogram stays registered
  // with count 0; it must not fold into a phase whose percentiles read 0.
  telemetry::MetricsRegistry Reg;
  Reg.histogram("parse.wall.seconds", telemetry::timeBounds()).observe(0.5);
  Reg.histogram("extract.wall.seconds", telemetry::timeBounds());
  std::ostringstream OS;
  Reg.writeJson(OS);
  std::optional<json::Value> Doc = json::parse(OS.str());
  ASSERT_TRUE(Doc.has_value());

  BenchRecord Rec = foldSidecar("bench_x", *Doc);
  EXPECT_EQ(Rec.Phases.count("parse"), 1u);
  EXPECT_EQ(Rec.Phases.count("extract"), 0u);
  EXPECT_EQ(Rec.Throughput.count("extract.per_sec"), 0u);
}

TEST(FoldSidecar, TolerantOfForeignDocuments) {
  std::optional<json::Value> Doc =
      json::parse("{\"gauges\":[1,2],\"histograms\":{\"x.wall.seconds\":3}}");
  ASSERT_TRUE(Doc);
  BenchRecord Rec = foldSidecar("odd", *Doc);
  EXPECT_TRUE(Rec.Throughput.empty());
  EXPECT_TRUE(Rec.Phases.empty());
}

TEST(Trajectory, WriteParseRoundTrip) {
  Trajectory T;
  T.Stamp = "2026-08-06";
  T.Benches.push_back(foldSidecar("bench_a", sidecarFor(1.0, 4, 100, 0.5)));
  T.Benches.push_back(foldSidecar("bench_b", sidecarFor(4.0, 4, 250, 0.9)));

  std::ostringstream OS;
  writeTrajectory(OS, T);
  std::string Error;
  std::optional<json::Value> Doc = json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->find("schema")->str(), "pigeon.bench.v1");

  std::optional<Trajectory> Back = parseTrajectory(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Stamp, T.Stamp);
  ASSERT_EQ(Back->Benches.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ(Back->Benches[I].Bench, T.Benches[I].Bench);
    EXPECT_EQ(Back->Benches[I].Throughput, T.Benches[I].Throughput);
    EXPECT_EQ(Back->Benches[I].Accuracy, T.Benches[I].Accuracy);
    EXPECT_EQ(Back->Benches[I].Latency, T.Benches[I].Latency);
    EXPECT_EQ(Back->Benches[I].RssPeakKb, T.Benches[I].RssPeakKb);
    EXPECT_EQ(Back->Benches[I].Cores, T.Benches[I].Cores);
    ASSERT_EQ(Back->Benches[I].Phases.size(), T.Benches[I].Phases.size());
    for (const auto &[Stage, S] : T.Benches[I].Phases) {
      const PhaseStats &B = Back->Benches[I].Phases.at(Stage);
      EXPECT_DOUBLE_EQ(B.Sum, S.Sum);
      EXPECT_EQ(B.Count, S.Count);
    }
  }
}

TEST(Trajectory, ParseRejectsForeignSchemas) {
  std::optional<json::Value> NotOurs =
      json::parse("{\"schema\":\"pigeon.metrics.v1\",\"benches\":[]}");
  ASSERT_TRUE(NotOurs);
  EXPECT_FALSE(parseTrajectory(*NotOurs).has_value());
  std::optional<json::Value> NoBenches =
      json::parse("{\"schema\":\"pigeon.bench.v1\"}");
  ASSERT_TRUE(NoBenches);
  EXPECT_FALSE(parseTrajectory(*NoBenches).has_value());
}

//===----------------------------------------------------------------------===//
// Regression gate
//===----------------------------------------------------------------------===//

namespace {

Trajectory trajectoryWith(double PerSec, double Accuracy) {
  Trajectory T;
  T.Stamp = "stamp";
  BenchRecord Rec;
  Rec.Bench = "bench_a";
  Rec.Throughput["parse.per_sec"] = PerSec;
  Rec.Throughput["sgns.pairs_per_sec"] = 1000.0;
  Rec.Accuracy["eval.vars.accuracy"] = Accuracy;
  T.Benches.push_back(Rec);
  return T;
}

} // namespace

TEST(RegressionGate, FailsASyntheticSlowdownOverThreshold) {
  Trajectory Before = trajectoryWith(100.0, 0.8);
  // 15% throughput drop against a 10% gate: must be flagged.
  Trajectory After = trajectoryWith(85.0, 0.8);
  std::vector<Regression> R = compareTrajectories(Before, After, 0.10);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Bench, "bench_a");
  EXPECT_EQ(R[0].Metric, "parse.per_sec");
  EXPECT_DOUBLE_EQ(R[0].Before, 100.0);
  EXPECT_DOUBLE_EQ(R[0].After, 85.0);
  EXPECT_NEAR(R[0].Ratio, 0.85, 1e-9);
}

TEST(RegressionGate, ToleratesDropsWithinThreshold) {
  Trajectory Before = trajectoryWith(100.0, 0.8);
  EXPECT_TRUE(
      compareTrajectories(Before, trajectoryWith(95.0, 0.8), 0.10).empty());
  // Exactly at the boundary is not a regression (strict <).
  EXPECT_TRUE(
      compareTrajectories(Before, trajectoryWith(90.0, 0.10), 0.10).empty());
  // Improvements never trip the gate.
  EXPECT_TRUE(
      compareTrajectories(Before, trajectoryWith(140.0, 0.8), 0.10).empty());
}

TEST(RegressionGate, AccuracyIsNotGated) {
  // Accuracy halves, throughput holds: phases/accuracy are reported but
  // not gated (too machine- or seed-sensitive for a hard CI failure).
  Trajectory Before = trajectoryWith(100.0, 0.8);
  Trajectory After = trajectoryWith(100.0, 0.4);
  EXPECT_TRUE(compareTrajectories(Before, After, 0.10).empty());
}

TEST(RegressionGate, IgnoresUnmatchedBenchesAndMetrics) {
  Trajectory Before = trajectoryWith(100.0, 0.8);
  Trajectory After = trajectoryWith(50.0, 0.8);
  After.Benches[0].Bench = "bench_new"; // no previous record
  EXPECT_TRUE(compareTrajectories(Before, After, 0.10).empty());

  Trajectory Mixed = trajectoryWith(100.0, 0.8);
  Mixed.Benches[0].Throughput.erase("parse.per_sec");
  Mixed.Benches[0].Throughput["brand.new.per_sec"] = 1.0;
  EXPECT_TRUE(compareTrajectories(Before, Mixed, 0.10).empty());
}

TEST(RegressionGate, SkipsNonPositiveBaselines) {
  Trajectory Before = trajectoryWith(0.0, 0.8);
  Trajectory After = trajectoryWith(0.0, 0.8);
  After.Benches[0].Throughput["parse.per_sec"] = 0.0;
  EXPECT_TRUE(compareTrajectories(Before, After, 0.10).empty());
}

//===----------------------------------------------------------------------===//
// Speedup floor
//===----------------------------------------------------------------------===//

namespace {

Trajectory speedupTrajectory(double ParseSpeedup, double ExtractSpeedup,
                             uint64_t Cores) {
  Trajectory T;
  T.Stamp = "stamp";
  BenchRecord Rec;
  Rec.Bench = "bench_parallel";
  Rec.Cores = Cores;
  Rec.Throughput["parallel.parse.speedup"] = ParseSpeedup;
  Rec.Throughput["parallel.extract.speedup"] = ExtractSpeedup;
  Rec.Throughput["parse.per_sec"] = 500.0; // Never floored.
  T.Benches.push_back(Rec);
  return T;
}

} // namespace

TEST(SpeedupFloor, FailsANegativeSpeedupWithNoHistory) {
  // The bug this PR fixes: a "parallel" run 15% *slower* than serial.
  // The floor must catch it from the current snapshot alone — no
  // previous trajectory to diff against.
  std::vector<Regression> R =
      speedupFloor(speedupTrajectory(0.85, 2.6, /*Cores=*/4));
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Bench, "bench_parallel");
  EXPECT_EQ(R[0].Metric, "parallel.parse.speedup");
  EXPECT_DOUBLE_EQ(R[0].Before, 1.0); // The floor itself.
  EXPECT_DOUBLE_EQ(R[0].After, 0.85);
}

TEST(SpeedupFloor, PassesHealthySpeedups) {
  EXPECT_TRUE(speedupFloor(speedupTrajectory(2.1, 2.8, 4)).empty());
  // Exactly at the floor passes (strict <).
  EXPECT_TRUE(speedupFloor(speedupTrajectory(1.0, 1.0, 4)).empty());
}

TEST(SpeedupFloor, ExemptsSingleCoreRecordsOnly) {
  // One core: 0.9x is the honest cost of sharding, not a regression.
  EXPECT_TRUE(speedupFloor(speedupTrajectory(0.9, 0.95, 1)).empty());
  // No recorded core count gets no benefit of the doubt.
  std::vector<Regression> R = speedupFloor(speedupTrajectory(0.9, 0.95, 0));
  EXPECT_EQ(R.size(), 2u);
}

TEST(SpeedupFloor, OnlyParallelSpeedupMetricsAreFloored) {
  // A non-parallel gauge that happens to end in .speedup, and ordinary
  // per_sec throughput, sit outside the floor's contract.
  Trajectory T = speedupTrajectory(2.0, 2.0, 4);
  T.Benches[0].Throughput["cache.hit.speedup"] = 0.5;
  T.Benches[0].Throughput["parse.per_sec"] = 0.001;
  EXPECT_TRUE(speedupFloor(T).empty());
}

TEST(SpeedupFloor, HonorsACustomFloor) {
  std::vector<Regression> R =
      speedupFloor(speedupTrajectory(2.2, 2.4, 4), /*Floor=*/2.5);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_DOUBLE_EQ(R[0].Before, 2.5);
}

//===----------------------------------------------------------------------===//
// Latency gates
//===----------------------------------------------------------------------===//

namespace {

Trajectory latencyTrajectory(double P99Concurrent, double P99Single) {
  Trajectory T;
  T.Stamp = "stamp";
  BenchRecord Rec;
  Rec.Bench = "bench_serve";
  Rec.Latency["serve.latency_ms.p50.concurrent"] = P99Concurrent / 2;
  Rec.Latency["serve.latency_ms.p99.concurrent"] = P99Concurrent;
  Rec.Latency["serve.latency_ms.p99.single"] = P99Single;
  Rec.Throughput["serve.requests_per_sec"] = 200.0;
  T.Benches.push_back(Rec);
  return T;
}

} // namespace

TEST(RegressionGate, FlagsALatencyIncreaseOverThreshold) {
  // Throughput holds but tail latency gains 50% against a 10% gate —
  // exactly the trade a throughput-only diff would wave through.
  Trajectory Before = latencyTrajectory(100.0, 40.0);
  Trajectory After = latencyTrajectory(150.0, 40.0);
  std::vector<Regression> R = compareTrajectories(Before, After, 0.10);
  ASSERT_EQ(R.size(), 2u); // p50 and p99 both moved by the same factor.
  EXPECT_EQ(R[0].Bench, "bench_serve");
  EXPECT_EQ(R[0].Metric, "serve.latency_ms.p50.concurrent");
  EXPECT_EQ(R[1].Metric, "serve.latency_ms.p99.concurrent");
  EXPECT_DOUBLE_EQ(R[1].Before, 100.0);
  EXPECT_DOUBLE_EQ(R[1].After, 150.0);
  EXPECT_NEAR(R[1].Ratio, 1.5, 1e-9);
}

TEST(RegressionGate, LatencyImprovementsAndSmallDriftPass) {
  Trajectory Before = latencyTrajectory(100.0, 40.0);
  // 5% drift under a 10% gate, and a clean improvement.
  EXPECT_TRUE(
      compareTrajectories(Before, latencyTrajectory(105.0, 42.0), 0.10)
          .empty());
  EXPECT_TRUE(
      compareTrajectories(Before, latencyTrajectory(60.0, 20.0), 0.10)
          .empty());
}

TEST(LatencyCeiling, FailsTailAboveTheCeilingFromOneSnapshot) {
  std::vector<Regression> R =
      latencyCeiling(latencyTrajectory(320.0, 50.0), /*CeilingMs=*/250.0);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Bench, "bench_serve");
  EXPECT_EQ(R[0].Metric, "serve.latency_ms.p99.concurrent");
  EXPECT_DOUBLE_EQ(R[0].Before, 250.0); // The ceiling itself.
  EXPECT_DOUBLE_EQ(R[0].After, 320.0);
  EXPECT_NEAR(R[0].Ratio, 320.0 / 250.0, 1e-9);
}

TEST(LatencyCeiling, ExemptsSingleClientAndNonTailSeries) {
  // p99.single blows through the ceiling, p50 too: neither is gated —
  // the ceiling is an SLO on the batched tail.
  Trajectory T = latencyTrajectory(200.0, 900.0);
  T.Benches[0].Latency["serve.latency_ms.p50.concurrent"] = 400.0;
  EXPECT_TRUE(latencyCeiling(T, 250.0).empty());
}

TEST(LatencyCeiling, ZeroCeilingDisablesTheGate) {
  EXPECT_TRUE(latencyCeiling(latencyTrajectory(5000.0, 5000.0), 0).empty());
}

//===- slowlog_test.cpp - Unit tests for serve/SlowLog ---------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/SlowLog.h"

#include "support/EventLog.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace pigeon;
using namespace pigeon::serve;

namespace {

RequestSample sampleWith(uint64_t Rid, double TotalMs) {
  RequestSample S;
  S.Rid = Rid;
  S.IdJson = std::to_string(Rid * 10);
  S.TotalMs = TotalMs;
  // A deterministic decomposition that sums exactly to TotalMs.
  S.StageMs = {TotalMs * 0.10, TotalMs * 0.05, TotalMs * 0.05,
               TotalMs * 0.25, TotalMs * 0.05, TotalMs * 0.40,
               TotalMs * 0.10};
  S.BatchSize = 4;
  S.DepthAtAdmit = 2;
  return S;
}

/// Renders \p S the way serve does: one `serve.request` event line.
std::string eventLine(const RequestSample &S) {
  telemetry::EventLog Log;
  Log.enableRing(1);
  Log.record("serve.request", requestFields(S));
  return Log.ringSnapshot().at(0);
}

} // namespace

//===----------------------------------------------------------------------===//
// The request record
//===----------------------------------------------------------------------===//

TEST(SlowLogEntry, RenderParseRoundTrip) {
  RequestSample S = sampleWith(7, 12.5);
  std::string Line = eventLine(S);

  std::string Error;
  std::optional<json::Value> Doc = json::parse(Line, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error << " in: " << Line;
  EXPECT_EQ(Doc->find("event")->str(), "serve.request");
  EXPECT_TRUE(Doc->find("ts")->isNumber());
  EXPECT_TRUE(Doc->find("code")->isNull());
  EXPECT_DOUBLE_EQ(Doc->find("total_ms")->number(), 12.5);
  EXPECT_DOUBLE_EQ(Doc->find("extract_ms")->number(), 12.5 * 0.05);
  EXPECT_DOUBLE_EQ(Doc->find("batch_size")->number(), 4.0);

  // The identity fields lead; the timing fields follow in stage order.
  std::vector<telemetry::EventField> Fields = requestFields(S);
  ASSERT_EQ(Fields.size(), NumIdentityFields + NumStages + 3);
  EXPECT_EQ(Fields[NumIdentityFields - 1].Key, "code");
  EXPECT_EQ(Fields[NumIdentityFields].Key, "queue_ms");
  EXPECT_EQ(Fields.back().Key, "depth_at_admit");

  std::optional<RequestSample> Back = parseRequestSample(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Rid, S.Rid);
  EXPECT_EQ(Back->IdJson, S.IdJson);
  EXPECT_TRUE(Back->Ok);
  EXPECT_DOUBLE_EQ(Back->TotalMs, S.TotalMs);
  for (size_t I = 0; I < NumStages; ++I)
    EXPECT_DOUBLE_EQ(Back->StageMs[I], S.StageMs[I]) << StageNames[I];
  EXPECT_EQ(Back->BatchSize, 4u);
  EXPECT_EQ(Back->DepthAtAdmit, 2u);
}

TEST(SlowLogEntry, ErrorEntriesCarryTheCode) {
  RequestSample S = sampleWith(3, 1.5);
  S.Ok = false;
  S.Code = "parse_error";
  std::optional<json::Value> Doc = json::parse(eventLine(S));
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("code")->str(), "parse_error");

  std::optional<RequestSample> Back = parseRequestSample(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_FALSE(Back->Ok);
  EXPECT_EQ(Back->Code, "parse_error");
}

TEST(SlowLogEntry, ParsesServeRequestEventRecords) {
  // The pigeon.events.v2 shape, as a --trace stream or --slow-log file
  // holds it: the timing echo's key names, in milliseconds.
  std::optional<json::Value> Doc = json::parse(
      "{\"event\":\"serve.request\",\"ts\":1.5,\"tid\":2,\"rid\":9,"
      "\"id\":\"abc\",\"ok\":true,\"code\":null,\"queue_ms\":1,"
      "\"seal_ms\":0.5,\"decode_ms\":0.1,\"parse_ms\":0.9,"
      "\"extract_ms\":0.5,\"predict_ms\":0.5,\"render_ms\":0.5,"
      "\"total_ms\":4,\"batch_size\":3,\"depth_at_admit\":1}");
  ASSERT_TRUE(Doc.has_value());
  std::optional<RequestSample> S = parseRequestSample(*Doc);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Rid, 9u);
  EXPECT_EQ(S->IdJson, "\"abc\"");
  EXPECT_DOUBLE_EQ(S->TotalMs, 4.0);
  EXPECT_DOUBLE_EQ(S->StageMs[0], 1.0);
  EXPECT_DOUBLE_EQ(S->StageMs[1], 0.5);
  EXPECT_DOUBLE_EQ(S->StageMs[2], 0.1);
  EXPECT_DOUBLE_EQ(S->StageMs[4], 0.5);
  EXPECT_EQ(S->BatchSize, 3u);
  EXPECT_EQ(S->DepthAtAdmit, 1u);
}

TEST(SlowLogEntry, RejectsForeignLines) {
  for (const char *Line :
       {"{\"event\":\"span.begin\",\"ts\":0.1,\"name\":\"parse\"}",
        "{\"event\":\"stream.begin\",\"schema\":\"pigeon.events.v2\"}",
        "{\"schema\":\"pigeon.serve.v1\",\"id\":1,\"ok\":true}", "[1,2,3]",
        "42",
        // The pigeon.events.v1 record: seconds under the stage names.
        "{\"event\":\"serve.request\",\"rid\":9,\"ok\":true,\"wall\":0.004,"
        "\"queue\":0.001,\"remap\":0.0005,\"batch\":3,\"depth\":1}"}) {
    std::optional<json::Value> Doc = json::parse(Line);
    ASSERT_TRUE(Doc.has_value()) << Line;
    EXPECT_FALSE(parseRequestSample(*Doc).has_value()) << Line;
  }
}

//===----------------------------------------------------------------------===//
// Report folding
//===----------------------------------------------------------------------===//

TEST(FoldSamples, ComputesStageStatsAndTopK) {
  std::vector<RequestSample> Samples;
  for (int I = 1; I <= 10; ++I)
    Samples.push_back(sampleWith(static_cast<uint64_t>(I), I * 1.0));

  LatencyReport R = foldSamples(Samples, /*TopK=*/3);
  EXPECT_EQ(R.Samples, 10u);
  EXPECT_DOUBLE_EQ(R.TotalP50Ms, 5.0);  // Nearest-rank on 1..10.
  EXPECT_DOUBLE_EQ(R.TotalP99Ms, 10.0);

  // Stage "predict" is 40% of every request, so 40% of the grand total.
  const StageStats &Predict = R.Stages[5];
  EXPECT_EQ(Predict.Count, 10u);
  EXPECT_NEAR(Predict.Share, 0.40, 1e-9);
  EXPECT_NEAR(Predict.MeanMs, 0.40 * 5.5, 1e-9);
  EXPECT_NEAR(Predict.MaxMs, 4.0, 1e-9);

  // Shares cover the whole timeline: the seven stages sum to 100%.
  double ShareSum = 0;
  for (const StageStats &St : R.Stages)
    ShareSum += St.Share;
  EXPECT_NEAR(ShareSum, 1.0, 1e-9);

  // Top-3 slowest, slowest first.
  ASSERT_EQ(R.Slowest.size(), 3u);
  EXPECT_EQ(R.Slowest[0].Rid, 10u);
  EXPECT_EQ(R.Slowest[1].Rid, 9u);
  EXPECT_EQ(R.Slowest[2].Rid, 8u);
}

TEST(FoldSamples, EmptyInputYieldsAnEmptyReport) {
  LatencyReport R = foldSamples({}, 5);
  EXPECT_EQ(R.Samples, 0u);
  EXPECT_DOUBLE_EQ(R.TotalP50Ms, 0.0);
  EXPECT_TRUE(R.Slowest.empty());
}

TEST(RenderLatencyReport, PrintsBothTables) {
  std::vector<RequestSample> Samples = {sampleWith(1, 4.0),
                                        sampleWith(2, 8.0)};
  std::ostringstream OS;
  renderLatencyReport(OS, foldSamples(Samples, 5));
  const std::string Text = OS.str();
  EXPECT_NE(Text.find("latency decomposition (2 requests"),
            std::string::npos);
  for (const char *Stage : StageNames)
    EXPECT_NE(Text.find(Stage), std::string::npos) << Stage;
  EXPECT_NE(Text.find("slowest requests"), std::string::npos);
}

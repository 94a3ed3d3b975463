//===- SlowLog.cpp - Tail-latency forensics for pigeon serve ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/SlowLog.h"

#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>

using namespace pigeon;
using namespace pigeon::serve;

const std::array<const char *, NumStages> serve::StageNames = {
    "queue", "seal", "decode", "parse", "extract", "predict", "render"};

//===----------------------------------------------------------------------===//
// The request record
//===----------------------------------------------------------------------===//

namespace {

// Keys of the record's timing fields besides the per-stage `<stage>_ms`.
constexpr const char *TotalKey = "total_ms";
constexpr const char *BatchSizeKey = "batch_size";
constexpr const char *DepthKey = "depth_at_admit";

std::string stageKey(size_t Stage) {
  return std::string(StageNames[Stage]) + "_ms";
}

double numField(const json::Value &Doc, std::string_view Key) {
  const json::Value *V = Doc.find(Key);
  return V && V->isNumber() ? V->number() : 0;
}

} // namespace

std::string serve::renderIdEcho(const json::Value &Id) {
  switch (Id.kind()) {
  case json::Value::Kind::Bool:
    return Id.boolean() ? "true" : "false";
  case json::Value::Kind::Number:
    return telemetry::jsonNumber(Id.number());
  case json::Value::Kind::String:
    return telemetry::jsonString(Id.str());
  default:
    return "null";
  }
}

std::vector<telemetry::EventField>
serve::requestFields(const RequestSample &S) {
  std::vector<telemetry::EventField> Fields;
  Fields.reserve(NumIdentityFields + NumStages + 3);
  Fields.push_back({"rid", std::to_string(S.Rid)});
  Fields.push_back({"id", S.IdJson});
  Fields.push_back({"ok", S.Ok ? "true" : "false"});
  Fields.push_back({"code", S.Ok ? "null" : telemetry::jsonString(S.Code)});
  for (size_t I = 0; I < NumStages; ++I)
    Fields.push_back({stageKey(I), telemetry::jsonNumber(S.StageMs[I])});
  Fields.push_back({TotalKey, telemetry::jsonNumber(S.TotalMs)});
  Fields.push_back({BatchSizeKey, std::to_string(S.BatchSize)});
  Fields.push_back({DepthKey, std::to_string(S.DepthAtAdmit)});
  return Fields;
}

std::optional<RequestSample>
serve::parseRequestSample(const json::Value &Doc) {
  if (!Doc.isObject())
    return std::nullopt;
  const json::Value *Event = Doc.find("event");
  const json::Value *Total = Doc.find(TotalKey);
  if (!Event || !Event->isString() || Event->str() != "serve.request" ||
      !Total || !Total->isNumber())
    return std::nullopt;

  RequestSample S;
  S.Rid = static_cast<uint64_t>(numField(Doc, "rid"));
  if (const json::Value *Id = Doc.find("id"))
    S.IdJson = renderIdEcho(*Id);
  if (const json::Value *Ok = Doc.find("ok"))
    S.Ok = Ok->isBool() ? Ok->boolean() : true;
  if (const json::Value *Code = Doc.find("code"))
    if (Code->isString())
      S.Code = Code->str();
  S.TotalMs = Total->number();
  for (size_t I = 0; I < NumStages; ++I)
    S.StageMs[I] = numField(Doc, stageKey(I));
  S.BatchSize = static_cast<uint64_t>(numField(Doc, BatchSizeKey));
  S.DepthAtAdmit = static_cast<uint64_t>(numField(Doc, DepthKey));
  return S;
}

//===----------------------------------------------------------------------===//
// Report folding
//===----------------------------------------------------------------------===//

namespace {

/// Nearest-rank percentile over a sorted sample vector (the same rule
/// bench_serve applies to its latency gauges).
double percentileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  if (Rank == 0)
    Rank = 1;
  return Sorted[std::min(Rank, Sorted.size()) - 1];
}

} // namespace

LatencyReport serve::foldSamples(std::vector<RequestSample> Samples,
                                 size_t TopK) {
  LatencyReport R;
  R.Samples = Samples.size();
  if (Samples.empty())
    return R;

  std::vector<double> Totals;
  Totals.reserve(Samples.size());
  double GrandTotal = 0;
  std::array<std::vector<double>, NumStages> PerStage;
  std::array<double, NumStages> StageSum{};
  for (const RequestSample &S : Samples) {
    Totals.push_back(S.TotalMs);
    GrandTotal += S.TotalMs;
    for (size_t I = 0; I < NumStages; ++I) {
      PerStage[I].push_back(S.StageMs[I]);
      StageSum[I] += S.StageMs[I];
    }
  }
  std::sort(Totals.begin(), Totals.end());
  R.TotalP50Ms = percentileSorted(Totals, 0.50);
  R.TotalP99Ms = percentileSorted(Totals, 0.99);

  for (size_t I = 0; I < NumStages; ++I) {
    std::vector<double> &V = PerStage[I];
    std::sort(V.begin(), V.end());
    StageStats &St = R.Stages[I];
    St.Count = V.size();
    St.MeanMs = StageSum[I] / static_cast<double>(V.size());
    St.P50Ms = percentileSorted(V, 0.50);
    St.P99Ms = percentileSorted(V, 0.99);
    St.MaxMs = V.back();
    St.Share = GrandTotal > 0 ? StageSum[I] / GrandTotal : 0;
  }

  std::sort(Samples.begin(), Samples.end(),
            [](const RequestSample &A, const RequestSample &B) {
              if (A.TotalMs != B.TotalMs)
                return A.TotalMs > B.TotalMs;
              return A.Rid < B.Rid;
            });
  if (Samples.size() > TopK)
    Samples.resize(TopK);
  R.Slowest = std::move(Samples);
  return R;
}

void serve::renderLatencyReport(std::ostream &OS, const LatencyReport &R) {
  TablePrinter Decomp("latency decomposition (" + std::to_string(R.Samples) +
                      " requests, total p50 " +
                      TablePrinter::num(R.TotalP50Ms, 3) + " ms / p99 " +
                      TablePrinter::num(R.TotalP99Ms, 3) + " ms)");
  Decomp.setHeader(
      {"stage", "p50 ms", "p99 ms", "mean ms", "max ms", "share"});
  for (size_t I = 0; I < NumStages; ++I) {
    const StageStats &St = R.Stages[I];
    Decomp.addRow({StageNames[I], TablePrinter::num(St.P50Ms, 3),
                   TablePrinter::num(St.P99Ms, 3),
                   TablePrinter::num(St.MeanMs, 3),
                   TablePrinter::num(St.MaxMs, 3),
                   TablePrinter::percent(St.Share)});
  }
  Decomp.print(OS);

  if (R.Slowest.empty())
    return;
  OS << "\n";
  TablePrinter Slow("slowest requests");
  std::vector<std::string> Header = {"rid", "id", "total ms"};
  for (const char *Stage : StageNames)
    Header.push_back(Stage);
  Header.push_back("batch");
  Header.push_back("ok");
  Slow.setHeader(std::move(Header));
  for (const RequestSample &S : R.Slowest) {
    std::vector<std::string> Row = {std::to_string(S.Rid), S.IdJson,
                                    TablePrinter::num(S.TotalMs, 3)};
    for (size_t I = 0; I < NumStages; ++I)
      Row.push_back(TablePrinter::num(S.StageMs[I], 3));
    Row.push_back(std::to_string(S.BatchSize));
    Row.push_back(S.Ok ? "yes" : S.Code.empty() ? "no" : S.Code);
    Slow.addRow(std::move(Row));
  }
  Slow.print(OS);
}

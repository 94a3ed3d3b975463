//===- Trajectory.cpp - Bench trajectory format and regression gate ----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Trajectory.h"

#include "support/EventLog.h"
#include "support/Telemetry.h"

#include <cmath>
#include <fstream>

using namespace pigeon;
using namespace pigeon::bench;

//===----------------------------------------------------------------------===//
// Folding
//===----------------------------------------------------------------------===//

namespace {

constexpr std::string_view WallSuffix = ".wall.seconds";

bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

} // namespace

BenchRecord bench::foldSidecar(const std::string &BenchName,
                               const json::Value &Doc) {
  BenchRecord Rec;
  Rec.Bench = BenchName;
  if (const json::Value *Gauges = Doc.find("gauges");
      Gauges && Gauges->isObject()) {
    for (const auto &[Name, V] : Gauges->object()) {
      if (!V.isNumber() || !std::isfinite(V.number()))
        continue;
      if (Name.find("per_sec") != std::string::npos ||
          endsWith(Name, ".speedup"))
        Rec.Throughput[Name] = V.number();
      if (Name.find("accuracy") != std::string::npos)
        Rec.Accuracy[Name] = V.number();
      if (Name.find("latency_ms") != std::string::npos)
        Rec.Latency[Name] = V.number();
      if (Name == "process.rss.peak.kb")
        Rec.RssPeakKb = static_cast<uint64_t>(V.number());
      if (Name == "parallel.bench.cores")
        Rec.Cores = static_cast<uint64_t>(V.number());
    }
  }
  if (const json::Value *Hists = Doc.find("histograms");
      Hists && Hists->isObject()) {
    for (const auto &[Name, H] : Hists->object()) {
      if (!endsWith(Name, WallSuffix) || !H.isObject())
        continue;
      std::string Stage = Name.substr(0, Name.size() - WallSuffix.size());
      PhaseStats Stats;
      auto Num = [&H](std::string_view Key) {
        const json::Value *V = H.find(Key);
        return V ? V->numberOr(0.0) : 0.0;
      };
      Stats.Count = static_cast<uint64_t>(Num("count"));
      // An empty series (e.g. one a registry reset left behind) has no
      // percentiles; folding it would record zeros as if measured.
      if (Stats.Count == 0)
        continue;
      Stats.P50 = Num("p50");
      Stats.P90 = Num("p90");
      Stats.P99 = Num("p99");
      Stats.Sum = Num("sum");
      Rec.Phases[Stage] = Stats;
      // Derived throughput: iterations per wall second of the stage.
      if (Stats.Sum > 0)
        Rec.Throughput[Stage + ".per_sec"] =
            static_cast<double>(Stats.Count) / Stats.Sum;
    }
  }
  return Rec;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void bench::writeTrajectory(std::ostream &OS, const Trajectory &T) {
  using telemetry::jsonEscape;
  using telemetry::jsonNumber;
  OS << "{\"schema\":\"pigeon.bench.v1\",\"stamp\":\""
     << jsonEscape(T.Stamp) << "\",\"benches\":[";
  for (size_t I = 0; I < T.Benches.size(); ++I) {
    const BenchRecord &Rec = T.Benches[I];
    if (I)
      OS << ",";
    OS << "\n  {\"bench\":\"" << jsonEscape(Rec.Bench)
       << "\",\"throughput\":{";
    bool First = true;
    for (const auto &[Name, V] : Rec.Throughput) {
      OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
         << "\":" << jsonNumber(V);
      First = false;
    }
    OS << "},\"phases\":{";
    First = true;
    for (const auto &[Stage, S] : Rec.Phases) {
      OS << (First ? "" : ",") << "\"" << jsonEscape(Stage) << "\":{"
         << "\"p50\":" << jsonNumber(S.P50)
         << ",\"p90\":" << jsonNumber(S.P90)
         << ",\"p99\":" << jsonNumber(S.P99)
         << ",\"sum\":" << jsonNumber(S.Sum) << ",\"count\":" << S.Count
         << "}";
      First = false;
    }
    OS << "},\"accuracy\":{";
    First = true;
    for (const auto &[Name, V] : Rec.Accuracy) {
      OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
         << "\":" << jsonNumber(V);
      First = false;
    }
    OS << "},\"latency\":{";
    First = true;
    for (const auto &[Name, V] : Rec.Latency) {
      OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
         << "\":" << jsonNumber(V);
      First = false;
    }
    OS << "},\"rss_peak_kb\":" << Rec.RssPeakKb
       << ",\"cores\":" << Rec.Cores << "}";
  }
  OS << "\n]}\n";
}

bool bench::writeTrajectoryFile(const std::string &Path,
                                const Trajectory &T) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  writeTrajectory(Out, T);
  return Out.good();
}

std::optional<Trajectory> bench::parseTrajectory(const json::Value &Doc) {
  const json::Value *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->str() != "pigeon.bench.v1")
    return std::nullopt;
  const json::Value *Benches = Doc.find("benches");
  if (!Benches || !Benches->isArray())
    return std::nullopt;
  Trajectory T;
  if (const json::Value *Stamp = Doc.find("stamp"))
    T.Stamp = Stamp->strOr("");
  for (const json::Value &B : Benches->array()) {
    if (!B.isObject())
      continue;
    BenchRecord Rec;
    if (const json::Value *Name = B.find("bench"))
      Rec.Bench = Name->strOr("");
    if (const json::Value *Tp = B.find("throughput"); Tp && Tp->isObject())
      for (const auto &[Name, V] : Tp->object())
        if (V.isNumber())
          Rec.Throughput[Name] = V.number();
    if (const json::Value *Ph = B.find("phases"); Ph && Ph->isObject())
      for (const auto &[Stage, S] : Ph->object()) {
        if (!S.isObject())
          continue;
        PhaseStats Stats;
        auto Num = [&S](std::string_view Key) {
          const json::Value *V = S.find(Key);
          return V ? V->numberOr(0.0) : 0.0;
        };
        Stats.P50 = Num("p50");
        Stats.P90 = Num("p90");
        Stats.P99 = Num("p99");
        Stats.Sum = Num("sum");
        Stats.Count = static_cast<uint64_t>(Num("count"));
        Rec.Phases[Stage] = Stats;
      }
    if (const json::Value *Acc = B.find("accuracy"); Acc && Acc->isObject())
      for (const auto &[Name, V] : Acc->object())
        if (V.isNumber())
          Rec.Accuracy[Name] = V.number();
    if (const json::Value *Lat = B.find("latency"); Lat && Lat->isObject())
      for (const auto &[Name, V] : Lat->object())
        if (V.isNumber())
          Rec.Latency[Name] = V.number();
    if (const json::Value *Rss = B.find("rss_peak_kb"))
      Rec.RssPeakKb = static_cast<uint64_t>(Rss->numberOr(0.0));
    if (const json::Value *Cores = B.find("cores"))
      Rec.Cores = static_cast<uint64_t>(Cores->numberOr(0.0));
    T.Benches.push_back(std::move(Rec));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Regression gate
//===----------------------------------------------------------------------===//

std::vector<Regression> bench::compareTrajectories(const Trajectory &Prev,
                                                   const Trajectory &Cur,
                                                   double Threshold) {
  std::vector<Regression> Out;
  for (const BenchRecord &CurRec : Cur.Benches) {
    const BenchRecord *PrevRec = nullptr;
    for (const BenchRecord &Cand : Prev.Benches)
      if (Cand.Bench == CurRec.Bench) {
        PrevRec = &Cand;
        break;
      }
    if (!PrevRec)
      continue; // New bench: nothing to compare against.
    for (const auto &[Metric, After] : CurRec.Throughput) {
      auto It = PrevRec->Throughput.find(Metric);
      if (It == PrevRec->Throughput.end())
        continue;
      // Speedups measured on one core (parallel stage speedups,
      // serve.workers.speedup, ...) are scheduler noise around 1.0 on
      // both sides of the diff — the same reasoning that exempts the
      // parallel ones from the absolute floor in speedupFloor().
      if ((CurRec.Cores == 1 || PrevRec->Cores == 1) &&
          endsWith(Metric, ".speedup"))
        continue;
      double Before = It->second;
      if (!(Before > 0) || !std::isfinite(Before) || !std::isfinite(After))
        continue;
      if (After < Before * (1.0 - Threshold))
        Out.push_back({CurRec.Bench, Metric, Before, After, After / Before});
    }
    // Latency gates in the opposite direction: rising is the regression.
    for (const auto &[Metric, After] : CurRec.Latency) {
      auto It = PrevRec->Latency.find(Metric);
      if (It == PrevRec->Latency.end())
        continue;
      double Before = It->second;
      if (!(Before > 0) || !std::isfinite(Before) || !std::isfinite(After))
        continue;
      if (After > Before * (1.0 + Threshold))
        Out.push_back({CurRec.Bench, Metric, Before, After, After / Before});
    }
  }
  return Out;
}

std::vector<Regression> bench::speedupFloor(const Trajectory &Cur,
                                            double Floor) {
  std::vector<Regression> Out;
  for (const BenchRecord &Rec : Cur.Benches) {
    if (Rec.Cores == 1)
      continue; // One core: speedup ≈ 1.0 is the honest best case.
    for (const auto &[Metric, Value] : Rec.Throughput) {
      if (Metric.rfind("parallel.", 0) != 0 || !endsWith(Metric, ".speedup"))
        continue;
      if (!std::isfinite(Value) || Value < Floor)
        Out.push_back({Rec.Bench, Metric, Floor, Value,
                       Floor > 0 ? Value / Floor : 0.0});
    }
  }
  return Out;
}

std::vector<Regression> bench::latencyCeiling(const Trajectory &Cur,
                                              double CeilingMs) {
  std::vector<Regression> Out;
  if (!(CeilingMs > 0))
    return Out;
  for (const BenchRecord &Rec : Cur.Benches) {
    for (const auto &[Metric, Value] : Rec.Latency) {
      if (!endsWith(Metric, ".p99") && !endsWith(Metric, ".p99.concurrent"))
        continue;
      if (!std::isfinite(Value) || Value > CeilingMs)
        Out.push_back({Rec.Bench, Metric, CeilingMs, Value,
                       Value / CeilingMs});
    }
  }
  return Out;
}

//===- Telemetry.cpp - Metrics registry and phase-trace timers --------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/EventLog.h"
#include "support/PhaseProfiler.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

using namespace pigeon;
using namespace pigeon::telemetry;

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

void Gauge::add(double X) {
  double Cur = Value.load(std::memory_order_relaxed);
  while (!Value.compare_exchange_weak(Cur, Cur + X,
                                      std::memory_order_relaxed)) {
  }
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)), BucketCounts(Bounds.size() + 1),
      Min(std::numeric_limits<double>::infinity()),
      Max(-std::numeric_limits<double>::infinity()) {}

namespace {

void atomicMin(std::atomic<double> &A, double X) {
  double Cur = A.load(std::memory_order_relaxed);
  while (X < Cur &&
         !A.compare_exchange_weak(Cur, X, std::memory_order_relaxed)) {
  }
}

void atomicMax(std::atomic<double> &A, double X) {
  double Cur = A.load(std::memory_order_relaxed);
  while (X > Cur &&
         !A.compare_exchange_weak(Cur, X, std::memory_order_relaxed)) {
  }
}

void atomicAdd(std::atomic<double> &A, double X) {
  double Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, Cur + X,
                                  std::memory_order_relaxed)) {
  }
}

} // namespace

void Histogram::observe(double X) {
  // Buckets are few (≤ ~25); a linear scan beats binary search here.
  size_t B = 0;
  while (B < Bounds.size() && X > Bounds[B])
    ++B;
  BucketCounts[B].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(Sum, X);
  atomicMin(Min, X);
  atomicMax(Max, X);
}

void Histogram::observeN(double X, uint64_t N) {
  if (N == 0)
    return;
  size_t B = 0;
  while (B < Bounds.size() && X > Bounds[B])
    ++B;
  BucketCounts[B].fetch_add(N, std::memory_order_relaxed);
  Count.fetch_add(N, std::memory_order_relaxed);
  atomicAdd(Sum, X * static_cast<double>(N));
  atomicMin(Min, X);
  atomicMax(Max, X);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : Min.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : Max.load(std::memory_order_relaxed);
}

double Histogram::percentile(double P) const {
  uint64_t Total = count();
  if (Total == 0)
    return std::numeric_limits<double>::quiet_NaN();
  P = std::clamp(P, 0.0, 1.0);
  double Lo = min(), Hi = max();
  // Rank of the requested quantile, 1-based.
  double Rank = P * static_cast<double>(Total);
  uint64_t Cumulative = 0;
  for (size_t B = 0; B < BucketCounts.size(); ++B) {
    uint64_t InBucket = BucketCounts[B].load(std::memory_order_relaxed);
    if (InBucket == 0)
      continue;
    if (static_cast<double>(Cumulative + InBucket) >= Rank) {
      double Lower = B == 0 ? Lo : Bounds[B - 1];
      double Upper = B < Bounds.size() ? Bounds[B] : Hi;
      Lower = std::clamp(Lower, Lo, Hi);
      Upper = std::clamp(Upper, Lo, Hi);
      double Frac = (Rank - static_cast<double>(Cumulative)) /
                    static_cast<double>(InBucket);
      return Lower + std::clamp(Frac, 0.0, 1.0) * (Upper - Lower);
    }
    Cumulative += InBucket;
  }
  return Hi;
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> Out;
  Out.reserve(BucketCounts.size());
  for (size_t B = 0; B < BucketCounts.size(); ++B)
    Out.push_back({B < Bounds.size()
                       ? Bounds[B]
                       : std::numeric_limits<double>::infinity(),
                   BucketCounts[B].load(std::memory_order_relaxed)});
  return Out;
}

void Histogram::resetValue() {
  for (auto &C : BucketCounts)
    C.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
  Min.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  Max.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
}

std::vector<double> telemetry::timeBounds() {
  // 1 µs up through ~2 minutes on a 1-2.5-5 ladder: serve's stages run
  // from ~10 µs (graph build) to ~1 ms, so the first buckets must
  // resolve microseconds.
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1,
          0.25, 0.5,    1.0,  2.5,  5.0,  10.0,  30.0, 120.0};
}

std::vector<double> telemetry::linearBounds(double Lo, double Hi,
                                            double Step) {
  std::vector<double> Out;
  for (double X = Lo; X <= Hi + Step * 1e-9; X += Step)
    Out.push_back(X);
  return Out;
}

//===----------------------------------------------------------------------===//
// TraceScope
//===----------------------------------------------------------------------===//

namespace {

/// The phase this thread is currently inside (nullptr = top level).
thread_local TraceNode *CurrentPhase = nullptr;

/// The event-log span this thread is currently inside (0 = none). Kept
/// beside CurrentPhase so the two always move together; TraceContext is
/// the pair.
thread_local uint64_t CurrentSpan = 0;

TraceNode *findOrCreateChild(TraceNode &Parent, std::string_view Name) {
  for (const auto &Child : Parent.Children)
    if (Child->Name == Name)
      return Child.get();
  Parent.Children.push_back(std::make_unique<TraceNode>());
  Parent.Children.back()->Name = std::string(Name);
  return Parent.Children.back().get();
}

} // namespace

TraceContext telemetry::currentTraceContext() {
  return {CurrentPhase, CurrentSpan};
}

TraceContext telemetry::setCurrentTraceContext(TraceContext Ctx) {
  TraceContext Prev{CurrentPhase, CurrentSpan};
  CurrentPhase = Ctx.Phase;
  CurrentSpan = Ctx.Span;
  return Prev;
}

TraceScope::TraceScope(std::string_view Name)
    : TraceScope(MetricsRegistry::global(), Name) {}

TraceScope::TraceScope(MetricsRegistry &Registry, std::string_view Name)
    : Registry(Registry), Parent(CurrentPhase), ParentSpan(CurrentSpan) {
  {
    std::lock_guard<std::mutex> Lock(Registry.Mutex);
    TraceNode &Under = Parent ? *Parent : Registry.Root;
    Node = findOrCreateChild(Under, Name);
    CurrentPhase = Node;
  }
  profilerPushFrame(Name);
  EventLog &Log = EventLog::global();
  if (Log.enabled()) {
    Span = Log.nextSpanId();
    CurrentSpan = Span;
    CpuStart = threadCpuSeconds();
    Log.spanBegin(Span, ParentSpan, Name);
  }
  Start = Clock::now();
}

TraceScope::~TraceScope() {
  profilerPopFrame();
  double Elapsed =
      std::chrono::duration<double>(Clock::now() - Start).count();
  if (Span != 0) {
    // Opened with the log enabled; emit the end record even if the log
    // was closed meanwhile (spanEnd no-ops in that case).
    double Cpu = CpuStart >= 0 ? threadCpuSeconds() - CpuStart : -1.0;
    EventLog::global().spanEnd(Span, ParentSpan, Node->Name, Elapsed, Cpu);
    CurrentSpan = ParentSpan;
  }
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  Node->Calls += 1;
  Node->Seconds += Elapsed;
  CurrentPhase = Parent;
}

double TraceScope::seconds() const {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Instance;
  return Instance;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      std::vector<double> Bounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(std::string(Name),
                      std::make_unique<Histogram>(std::move(Bounds)))
             .first;
  return *It->second;
}

WindowedHistogram &MetricsRegistry::windowed(std::string_view Name,
                                             std::vector<double> Bounds,
                                             size_t Slices,
                                             double SliceSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Windowed.find(Name);
  if (It == Windowed.end())
    It = Windowed
             .emplace(std::string(Name),
                      std::make_unique<WindowedHistogram>(
                          std::move(Bounds), Slices, SliceSeconds))
             .first;
  return *It->second;
}

size_t MetricsRegistry::numCounters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters.size();
}

size_t MetricsRegistry::numGauges() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Gauges.size();
}

size_t MetricsRegistry::numHistograms() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Histograms.size();
}

size_t MetricsRegistry::numWindowed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Windowed.size();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->resetValue();
  for (auto &[Name, G] : Gauges)
    G->resetValue();
  for (auto &[Name, H] : Histograms)
    H->resetValue();
  for (auto &[Name, W] : Windowed)
    W->resetValue();
  Root.Children.clear();
  Root.Calls = 0;
  Root.Seconds = 0;
}

//===----------------------------------------------------------------------===//
// JSON emission
//===----------------------------------------------------------------------===//

std::string telemetry::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(Ch)));
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

namespace {

// jsonNumber lives in EventLog.cpp now (shared with the event stream);
// non-finite values — NaN gauges, empty-histogram percentiles, the
// overflow-bucket bound — all render as null.

void writeTraceJson(std::ostream &OS, const TraceNode &Node) {
  OS << "{\"name\":\"" << jsonEscape(Node.Name)
     << "\",\"calls\":" << Node.Calls
     << ",\"seconds\":" << jsonNumber(Node.Seconds) << ",\"children\":[";
  for (size_t I = 0; I < Node.Children.size(); ++I) {
    if (I)
      OS << ",";
    writeTraceJson(OS, *Node.Children[I]);
  }
  OS << "]}";
}

} // namespace

void MetricsRegistry::writeJson(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  OS << "{\"schema\":\"pigeon.metrics.v1\",\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
       << "\":" << C->value();
    First = false;
  }
  OS << "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
       << "\":" << jsonNumber(G->value());
    First = false;
  }
  OS << "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    bool Empty = H->count() == 0;
    // min()/max() return 0.0 on empty for API compatibility; in the JSON
    // snapshot an empty histogram has no extrema, so emit null (matching
    // the NaN percentiles) rather than a fake 0.
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name) << "\":{"
       << "\"count\":" << H->count() << ",\"sum\":" << jsonNumber(H->sum())
       << ",\"min\":" << (Empty ? "null" : jsonNumber(H->min()))
       << ",\"max\":" << (Empty ? "null" : jsonNumber(H->max()))
       << ",\"p50\":" << jsonNumber(H->percentile(0.50))
       << ",\"p90\":" << jsonNumber(H->percentile(0.90))
       << ",\"p99\":" << jsonNumber(H->percentile(0.99)) << ",\"buckets\":[";
    const auto Buckets = H->buckets();
    for (size_t B = 0; B < Buckets.size(); ++B) {
      if (B)
        OS << ",";
      OS << "{\"le\":" << jsonNumber(Buckets[B].UpperBound)
         << ",\"count\":" << Buckets[B].Count << "}";
    }
    OS << "]}";
    First = false;
  }
  OS << "},\"windowed\":{";
  First = true;
  for (const auto &[Name, W] : Windowed) {
    WindowedHistogram::Snapshot Snap = W->snapshot();
    bool Empty = Snap.Count == 0;
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name) << "\":{"
       << "\"window_seconds\":" << jsonNumber(Snap.WindowSeconds)
       << ",\"count\":" << Snap.Count << ",\"sum\":" << jsonNumber(Snap.Sum)
       << ",\"rate_per_sec\":" << jsonNumber(Snap.RatePerSec)
       << ",\"min\":" << (Empty ? "null" : jsonNumber(Snap.Min))
       << ",\"max\":" << (Empty ? "null" : jsonNumber(Snap.Max))
       << ",\"p50\":" << jsonNumber(Snap.P50)
       << ",\"p90\":" << jsonNumber(Snap.P90)
       << ",\"p99\":" << jsonNumber(Snap.P99) << ",\"buckets\":[";
    for (size_t B = 0; B < Snap.Buckets.size(); ++B) {
      if (B)
        OS << ",";
      OS << "{\"le\":" << jsonNumber(Snap.Buckets[B].UpperBound)
         << ",\"count\":" << Snap.Buckets[B].Count << "}";
    }
    OS << "]}";
    First = false;
  }
  OS << "},\"trace\":";
  writeTraceJson(OS, Root);
  OS << "}\n";
}

bool MetricsRegistry::writeJsonFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  writeJson(Out);
  return Out.good();
}

std::string MetricsRegistry::jsonSnapshot() const {
  std::ostringstream OS;
  writeJson(OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (format v0.0.4)
//===----------------------------------------------------------------------===//

std::string telemetry::promMetricName(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size() + 1);
  for (size_t I = 0; I < Name.size(); ++I) {
    char Ch = Name[I];
    bool Valid = (Ch >= 'a' && Ch <= 'z') || (Ch >= 'A' && Ch <= 'Z') ||
                 Ch == '_' || Ch == ':' || (Ch >= '0' && Ch <= '9');
    if (Ch >= '0' && Ch <= '9' && I == 0)
      Out += '_'; // Names must not start with a digit.
    Out += Valid ? Ch : '_';
  }
  if (Out.empty())
    Out = "_";
  return Out;
}

std::string telemetry::promEscapeLabel(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    switch (Ch) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += Ch;
    }
  }
  return Out;
}

namespace {

/// Prometheus sample values: plain decimal, with the non-finite spellings
/// the exposition format defines (`NaN`, `+Inf`, `-Inf`) instead of the
/// JSON `null`.
std::string promNumber(double X) {
  if (std::isnan(X))
    return "NaN";
  if (std::isinf(X))
    return X > 0 ? "+Inf" : "-Inf";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  return Buf;
}

void promHeader(std::ostream &OS, const std::string &Name,
                std::string_view Help, std::string_view Type) {
  OS << "# HELP " << Name << " " << Help << "\n";
  OS << "# TYPE " << Name << " " << Type << "\n";
}

} // namespace

void MetricsRegistry::writePrometheus(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, C] : Counters) {
    std::string Prom = promMetricName(Name);
    // Convention: counters carry a _total suffix (unless already there).
    if (Prom.size() < 6 || Prom.compare(Prom.size() - 6, 6, "_total") != 0)
      Prom += "_total";
    promHeader(OS, Prom, "pigeon counter " + std::string(Name), "counter");
    OS << Prom << " " << C->value() << "\n";
  }
  for (const auto &[Name, G] : Gauges) {
    std::string Prom = promMetricName(Name);
    promHeader(OS, Prom, "pigeon gauge " + std::string(Name), "gauge");
    OS << Prom << " " << promNumber(G->value()) << "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string Prom = promMetricName(Name);
    promHeader(OS, Prom, "pigeon histogram " + std::string(Name),
               "histogram");
    // _bucket counts are cumulative: each le bucket includes everything
    // below it, and le="+Inf" equals _count.
    uint64_t Cumulative = 0;
    for (const Histogram::Bucket &B : H->buckets()) {
      Cumulative += B.Count;
      OS << Prom << "_bucket{le=\"" << promNumber(B.UpperBound) << "\"} "
         << Cumulative << "\n";
    }
    OS << Prom << "_sum " << promNumber(H->sum()) << "\n";
    OS << Prom << "_count " << H->count() << "\n";
  }
  for (const auto &[Name, W] : Windowed) {
    WindowedHistogram::Snapshot Snap = W->snapshot();
    // The _window suffix keeps the summary distinct from a cumulative
    // histogram exported under the same dotted name.
    std::string Prom = promMetricName(Name) + "_window";
    promHeader(OS, Prom,
               "pigeon sliding-window summary " + std::string(Name) +
                   " (last " + promNumber(Snap.WindowSeconds) + "s)",
               "summary");
    OS << Prom << "{quantile=\"0.5\"} " << promNumber(Snap.P50) << "\n";
    OS << Prom << "{quantile=\"0.9\"} " << promNumber(Snap.P90) << "\n";
    OS << Prom << "{quantile=\"0.99\"} " << promNumber(Snap.P99) << "\n";
    OS << Prom << "_sum " << promNumber(Snap.Sum) << "\n";
    OS << Prom << "_count " << Snap.Count << "\n";
    std::string Rate = promMetricName(Name) + "_window_rate_per_sec";
    promHeader(OS, Rate,
               "pigeon windowed rate of " + std::string(Name), "gauge");
    OS << Rate << " " << promNumber(Snap.RatePerSec) << "\n";
  }
}

std::string MetricsRegistry::prometheusSnapshot() const {
  std::ostringstream OS;
  writePrometheus(OS);
  return OS.str();
}

bool telemetry::writeFileAtomic(const std::string &Path,
                                std::string_view Content) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Content.data(),
              static_cast<std::streamsize>(Content.size()));
    Out.flush();
    if (!Out.good())
      return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Table emission
//===----------------------------------------------------------------------===//

void MetricsRegistry::printTable(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Counters.empty() || !Gauges.empty()) {
    TablePrinter Table("Metrics");
    Table.setHeader({"Metric", "Value"});
    for (const auto &[Name, C] : Counters)
      Table.addRow({Name, std::to_string(C->value())});
    for (const auto &[Name, G] : Gauges)
      Table.addRow({Name, TablePrinter::num(G->value(), 3)});
    Table.print(OS);
  }
  if (!Histograms.empty()) {
    TablePrinter Table("Histograms");
    Table.setHeader(
        {"Metric", "Count", "Sum", "Min", "p50", "p90", "p99", "Max"});
    for (const auto &[Name, H] : Histograms) {
      if (H->count() == 0) {
        Table.addRow({Name, "0", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      Table.addRow({Name, std::to_string(H->count()),
                    TablePrinter::num(H->sum(), 3),
                    TablePrinter::num(H->min(), 3),
                    TablePrinter::num(H->percentile(0.50), 3),
                    TablePrinter::num(H->percentile(0.90), 3),
                    TablePrinter::num(H->percentile(0.99), 3),
                    TablePrinter::num(H->max(), 3)});
    }
    Table.print(OS);
  }
  if (!Windowed.empty()) {
    TablePrinter Table("Windowed (sliding)");
    Table.setHeader(
        {"Metric", "Window s", "Count", "Rate/s", "p50", "p90", "p99"});
    for (const auto &[Name, W] : Windowed) {
      WindowedHistogram::Snapshot Snap = W->snapshot();
      if (Snap.Count == 0) {
        Table.addRow({Name, TablePrinter::num(Snap.WindowSeconds, 0), "0",
                      "-", "-", "-", "-"});
        continue;
      }
      Table.addRow({Name, TablePrinter::num(Snap.WindowSeconds, 0),
                    std::to_string(Snap.Count),
                    TablePrinter::num(Snap.RatePerSec, 3),
                    TablePrinter::num(Snap.P50, 3),
                    TablePrinter::num(Snap.P90, 3),
                    TablePrinter::num(Snap.P99, 3)});
    }
    Table.print(OS);
  }
}

namespace {

void addTraceRows(TablePrinter &Table, const TraceNode &Node, int Depth,
                  double ParentSeconds) {
  std::string Indent(static_cast<size_t>(Depth) * 2, ' ');
  std::string Share =
      ParentSeconds > 0
          ? TablePrinter::percent(Node.Seconds / ParentSeconds)
          : "-";
  Table.addRow({Indent + Node.Name, std::to_string(Node.Calls),
                TablePrinter::num(Node.Seconds, 3), Share});
  for (const auto &Child : Node.Children)
    addTraceRows(Table, *Child, Depth + 1, Node.Seconds);
}

} // namespace

void MetricsRegistry::printTraceTable(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  TablePrinter Table("Phase timings");
  Table.setHeader({"Phase", "Calls", "Seconds", "% of parent"});
  double Total = 0;
  for (const auto &Child : Root.Children)
    Total += Child->Seconds;
  for (const auto &Child : Root.Children)
    addTraceRows(Table, *Child, 0, Total);
  Table.print(OS);
}

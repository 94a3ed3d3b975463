//===- Ledger.h - Benchmark spans, order statistics, result line ----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark harness, independent of PIGEON:
///
///  * SpanLedger records spans (name, start, end, parent, request id)
///    that the harness opens around each call it makes into a PIGEON
///    layer. Spans stay in memory and are written as JSON lines when the
///    run ends; a disabled ledger records nothing, so untraced runs pay
///    one branch per call.
///  * quantile()/tail() give the order statistics the result reports:
///    a median, and the highest percentile with at least ten samples
///    beyond it.
///  * ResultLine prints the final JSON object the benchmark contract
///    asks for, with every number at full precision.
///
/// All times come from std::chrono::steady_clock.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_PERFBENCH_LEDGER_H
#define PIGEON_PERFBENCH_LEDGER_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// One timed call. Parent is the index of the enclosing span, -1 at the
/// root; Rid groups the spans of one request (or one job).
struct Span {
  const char *Name = "";
  Clock::time_point Start, End;
  int32_t Parent = -1;
  int64_t Rid = -1;
};

/// Per-name sums over a ledger. Self time is a span's duration minus the
/// time its direct children cover (spans nest strictly: one thread opens
/// and closes them in stack order).
struct SpanTotals {
  double Seconds = 0;
  double SelfSeconds = 0;
};

class SpanLedger {
public:
  explicit SpanLedger(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span under the innermost open one. \returns its index, or
  /// -1 when the ledger is disabled. \p Name must be a string literal.
  int32_t open(const char *Name, int64_t Rid) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Rid = Rid;
    Spans.push_back(S);
    int32_t Index = static_cast<int32_t>(Spans.size() - 1);
    Stack.push_back(Index);
    Spans.back().Start = Clock::now();
    return Index;
  }

  void close(int32_t Index) {
    if (Index < 0)
      return;
    Spans[static_cast<size_t>(Index)].End = Clock::now();
    Stack.pop_back();
  }

  /// Sums by span name, optionally only over spans with request id
  /// \p Rid (-1 = all).
  std::map<std::string, SpanTotals> totals(int64_t Rid = -1) const {
    std::vector<double> ChildSeconds(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildSeconds[static_cast<size_t>(S.Parent)] +=
            secondsBetween(S.Start, S.End);
    std::map<std::string, SpanTotals> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (Rid >= 0 && S.Rid != Rid)
        continue;
      SpanTotals &T = Out[S.Name];
      double D = secondsBetween(S.Start, S.End);
      T.Seconds += D;
      T.SelfSeconds += D - ChildSeconds[I];
    }
    return Out;
  }

  /// Writes one JSON object per span: name, start/end in µs since the
  /// first span, parent index and request id. \returns false on an I/O
  /// error.
  bool writeJsonl(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Clock::time_point Origin =
        Spans.empty() ? Clock::time_point() : Spans.front().Start;
    char Buf[256];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(
          Buf, sizeof(Buf),
          "{\"i\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
          "\"parent\":%d,\"rid\":%lld}\n",
          I, S.Name,
          std::chrono::duration<double, std::micro>(S.Start - Origin).count(),
          std::chrono::duration<double, std::micro>(S.End - Origin).count(),
          S.Parent, static_cast<long long>(S.Rid));
      Out << Buf;
    }
    Out.flush();
    return static_cast<bool>(Out);
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
public:
  SpanScope(SpanLedger &Ledger, const char *Name, int64_t Rid = -1)
      : Ledger(Ledger), Index(Ledger.open(Name, Rid)) {}
  ~SpanScope() { Ledger.close(Index); }

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLedger &Ledger;
  int32_t Index;
};

/// Quantile \p Q in [0, 1] of \p Values, interpolating linearly between
/// order statistics (numpy's default definition). NaN when empty.
inline double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return std::nan("");
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// The tail statistic reported as "p99": the 99th percentile when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// still has ten beyond it, and the maximum when there are too few
/// samples for any (fewer than 20).
struct Tail {
  double Q = 0;
  double Value = 0;
};

inline Tail tail(const std::vector<double> &Values) {
  double N = static_cast<double>(Values.size());
  double Q = std::min(0.99, 1.0 - 10.0 / std::max(N, 1.0));
  if (Q < 0.5)
    Q = 1.0;
  return {Q, quantile(Values, Q)};
}

inline double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::nan("");
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

/// The benchmark's result: the last line of standard output.
class ResultLine {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }

  /// Prints {"correct", "attempted", "failed", "metrics"} on one line.
  /// A non-finite value (a statistic of a series with no samples) is
  /// omitted rather than printed as a number it is not.
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    const char *Sep = "";
    for (const auto &[Name, VU] : Metrics) {
      if (!std::isfinite(VU.first))
        continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                  Name.c_str(), VU.first, VU.second.c_str());
      Sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
  metrics() const {
    return Metrics;
  }

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
};

} // namespace perfbench

#endif // PIGEON_PERFBENCH_LEDGER_H

//===- trace_report.cpp - Fold serve traces into a latency report ----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `trace_report [--top K] FILE...` — folds `pigeon serve` observability
/// artifacts into a latency-decomposition report: per-stage p50/p99
/// across every request found, plus the top-K slowest requests with
/// their full stage timelines.
///
/// Accepted inputs, freely mixed: pigeon.events.v2 streams (`pigeon
/// serve --trace FILE` output and its rotated `FILE.1` segment), slow
/// logs (`--slow-log FILE`) and flight-recorder dumps (`--flightrec
/// FILE`). All three hold the same `serve.request` record lines, which
/// are folded; every other line is skipped, the v1 shape of that record
/// included.
///
/// Exit codes: 0 when at least one request sample was found, 1 when the
/// inputs held none (CI uses this to assert a non-empty decomposition),
/// 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "serve/SlowLog.h"
#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace pigeon;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_report [--top K] FILE...\n"
               "  FILE: a pigeon.events.v2 stream (--trace), slow log\n"
               "        (--slow-log) or flight-recorder dump (--flightrec)\n"
               "  --top K  timelines to list for the slowest requests "
               "(default 5)\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  size_t TopK = 5;
  std::vector<std::string> Files;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--top") {
      if (++I >= argc)
        return usage();
      long V = std::strtol(argv[I], nullptr, 10);
      if (V < 0)
        return usage();
      TopK = static_cast<size_t>(V);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage();
    } else {
      Files.push_back(std::move(Arg));
    }
  }
  if (Files.empty())
    return usage();

  std::vector<serve::RequestSample> Samples;
  size_t LinesRead = 0, LinesSkipped = 0;
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 2;
    }
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      ++LinesRead;
      std::optional<json::Value> Doc = json::parse(Line);
      if (!Doc) {
        ++LinesSkipped; // Torn tail line of a live stream: tolerate.
        continue;
      }
      if (std::optional<serve::RequestSample> S =
              serve::parseRequestSample(*Doc))
        Samples.push_back(std::move(*S));
    }
  }

  std::fprintf(stderr, "trace_report: %zu request samples from %zu lines",
               Samples.size(), LinesRead);
  if (LinesSkipped)
    std::fprintf(stderr, " (%zu unparsable lines skipped)", LinesSkipped);
  std::fprintf(stderr, "\n");

  if (Samples.empty()) {
    std::fprintf(stderr,
                 "trace_report: no serve.request samples found\n");
    return 1;
  }

  serve::LatencyReport R = serve::foldSamples(std::move(Samples), TopK);
  serve::renderLatencyReport(std::cout, R);
  return 0;
}

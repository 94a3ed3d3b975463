//===- serve_test.cpp - Unit tests for the resident prediction service -----===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Covers the pigeon.serve.v1 protocol end to end: valid requests, every
// structured error path (malformed JSON, unknown/mismatched lang and
// task, oversized source, bad field types, deadline exceeded, queue
// full, shutting down), batching determinism (a batched response is
// byte-identical to a sequential one, and both match the one-shot
// predict route exactly), and the fd front-end's EOF and stop-flag
// shutdown with full response flush.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "TempBundle.h"
#include "serve/SlowLog.h"

#include "core/Experiments.h"
#include "lang/js/JsParser.h"
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pigeon;
using namespace pigeon::core;
using namespace pigeon::serve;
using pigeon::lang::Language;

namespace {

/// Trains a small JS variable-name bundle once and writes it to a temp
/// file that lives as long as the process, so every test serves
/// exactly what `pigeon serve` would: a bundle mapped from that file.
const test::TempFile &trainedBundleFile() {
  static const test::TempFile File([] {
    ModelBundle Bundle;
    Bundle.Lang = Language::JavaScript;
    Bundle.Interner = std::make_unique<StringInterner>();
    Bundle.Extraction =
        tunedExtraction(Language::JavaScript, Task::VariableNames);
    Bundle.TaskKind = Task::VariableNames;

    datagen::CorpusSpec Spec =
        datagen::defaultSpec(Language::JavaScript, /*Seed=*/5);
    Spec.NumProjects = 6;
    crf::ElementSelector Selector = selectorFor(Task::VariableNames);
    std::vector<crf::CrfGraph> Graphs;
    std::vector<std::optional<ast::Tree>> Keep;
    for (const datagen::SourceFile &File : datagen::generateCorpus(Spec)) {
      lang::ParseResult R = js::parse(File.Text, *Bundle.Interner);
      EXPECT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = paths::extractPathContexts(
          *Keep.back(), Bundle.Extraction, Bundle.Table);
      Graphs.push_back(crf::buildGraph(*Keep.back(), Contexts, Selector));
    }
    Bundle.Model.train(Graphs);
    return test::bundleBytes(Bundle);
  }());
  return File;
}

std::unique_ptr<ModelBundle> loadBundle() {
  LoadDiag Diag;
  auto Bundle = openMappedBundle(trainedBundleFile().path(), &Diag);
  EXPECT_NE(Bundle, nullptr) << Diag.Error;
  return Bundle;
}

const char *MinifiedFlag =
    "function f() { var a = false; while (!a) { if (check()) { a = true; } "
    "} return a; }";

const char *MinifiedLoop =
    "function g(x, y) { var q = 0; q += x; q += y; return q; }";

/// A flat 500-term sum: extraction examines every leaf pair, so the
/// request runs for a hundred milliseconds or more, far longer than
/// MinifiedFlag's, while passing decode like any other.
std::string slowChain() {
  std::string Chain = "function f(x) { return x";
  for (int I = 1; I < 500; ++I)
    Chain += " + x";
  return Chain + "; }";
}

std::string jsonEscape(const std::string &S) {
  return telemetry::jsonString(S);
}

std::string requestLine(const std::string &Source,
                        const std::string &Extra = "") {
  return "{\"lang\":\"js\",\"task\":\"vars\",\"source\":" +
         jsonEscape(Source) + Extra + "}";
}

json::Value parsed(const std::string &Line) {
  std::string Error;
  std::optional<json::Value> Doc = json::parse(Line, &Error);
  EXPECT_TRUE(Doc.has_value()) << Error << " in: " << Line;
  return Doc ? *Doc : json::Value();
}

std::string errorCode(const json::Value &Doc) {
  const json::Value *Error = Doc.find("error");
  if (!Error)
    return "";
  const json::Value *Code = Error->find("code");
  return Code ? Code->strOr("") : "";
}

/// Runs serveFdLoop (the `pigeon serve --stdio` front-end) over pipes:
/// writes \p Input, closes it, and returns everything written back once
/// the loop drained on EOF.
std::string serveOverPipes(Service &S, const std::string &Input) {
  int InPipe[2], OutPipe[2];
  EXPECT_EQ(::pipe(InPipe), 0);
  EXPECT_EQ(::pipe(OutPipe), 0);
  std::atomic<bool> Stop{false};
  std::thread Loop([&] {
    serveFdLoop(S, InPipe[0], OutPipe[1], Stop);
    ::close(OutPipe[1]); // EOF for the reader below.
  });
  std::thread Writer([&] {
    writeAll(InPipe[1], Input);
    ::close(InPipe[1]);
  });
  std::string Output;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(OutPipe[0], Buf, sizeof(Buf))) > 0)
    Output.append(Buf, static_cast<size_t>(N));
  Writer.join();
  Loop.join();
  ::close(InPipe[0]);
  ::close(OutPipe[0]);
  return Output;
}

//===----------------------------------------------------------------------===//
// Happy path
//===----------------------------------------------------------------------===//

TEST(Serve, ValidRequestReturnsPredictions) {
  Service S(loadBundle());
  json::Value Doc = parsed(
      S.handleOne(requestLine(MinifiedFlag, ",\"id\":42,\"k\":2")));
  EXPECT_EQ(Doc.find("schema")->strOr(""), "pigeon.serve.v1");
  EXPECT_EQ(Doc.find("id")->numberOr(-1), 42.0);
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const auto &Preds = Doc.find("predictions")->array();
  ASSERT_FALSE(Preds.empty());
  for (const json::Value &P : Preds) {
    EXPECT_TRUE(P.find("element")->isString());
    EXPECT_TRUE(P.find("kind")->isString());
    EXPECT_LE(P.find("candidates")->array().size(), 2u);
  }
}

TEST(Serve, TaskDefaultsToBundleTask) {
  Service S(loadBundle());
  json::Value Doc = parsed(S.handleOne(
      "{\"lang\":\"js\",\"source\":" + jsonEscape(MinifiedFlag) + "}"));
  EXPECT_TRUE(Doc.find("ok")->boolean());
}

/// The acceptance pin: a served response must carry exactly the labels
/// and scores the one-shot route (parse straight into the bundle
/// interner, extract, predict, topK) produces on a freshly loaded bundle
/// of the same bytes. This is what the private-interner remap buys.
TEST(Serve, ResponseMatchesOneShotPredictionExactly) {
  std::unique_ptr<ModelBundle> Direct = loadBundle();
  lang::ParseResult R = js::parse(MinifiedFlag, *Direct->Interner);
  ASSERT_TRUE(R.Tree.has_value());
  auto Contexts = paths::extractPathContexts(*R.Tree, Direct->Extraction,
                                             Direct->Table);
  crf::CrfGraph G =
      crf::buildGraph(*R.Tree, Contexts, selectorFor(Direct->TaskKind));
  std::vector<Symbol> Pred = Direct->Model.predict(G);

  Service S(loadBundle());
  json::Value Doc = parsed(S.handleOne(requestLine(MinifiedFlag)));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const auto &Preds = Doc.find("predictions")->array();
  ASSERT_EQ(Preds.size(), G.Unknowns.size());
  for (size_t I = 0; I < G.Unknowns.size(); ++I) {
    uint32_t N = G.Unknowns[I];
    EXPECT_EQ(Preds[I].find("element")->strOr(""),
              Direct->Interner->str(G.Nodes[N].Gold));
    auto Top = Direct->Model.topK(G, N, Pred, 3);
    const auto &Cands = Preds[I].find("candidates")->array();
    ASSERT_EQ(Cands.size(), Top.size());
    for (size_t C = 0; C < Top.size(); ++C) {
      EXPECT_EQ(Cands[C].find("label")->strOr(""),
                Direct->Interner->str(Top[C].first));
      // Compare through the same rendering the service used, so this is
      // byte-equality of the wire format, not approximate equality.
      EXPECT_EQ(telemetry::jsonNumber(Cands[C].find("score")->number()),
                telemetry::jsonNumber(Top[C].second));
    }
  }
}

/// Batched processing must not change any response byte: one service
/// handles four requests in a single micro-batch, the other handles the
/// same four sequentially (batch size 1 by construction of handleOne),
/// both freshly loaded from the same bundle bytes. The batch forms
/// although four workers are idle: they share one queue, and the first
/// to wake after resume() takes all four.
TEST(Serve, BatchedResponsesByteIdenticalToSequential) {
  std::vector<std::string> Lines = {
      requestLine(MinifiedFlag, ",\"id\":\"a\""),
      requestLine(MinifiedLoop, ",\"id\":\"b\""),
      requestLine(MinifiedFlag, ",\"id\":\"c\",\"k\":1"),
      requestLine(MinifiedLoop, ",\"id\":\"d\",\"explain\":true"),
  };

  Service Sequential(loadBundle());
  std::vector<std::string> SequentialResponses;
  for (const std::string &Line : Lines)
    SequentialResponses.push_back(Sequential.handleOne(Line));

  ServeConfig Batched;
  Batched.Workers = 4;
  Batched.MaxBatch = Lines.size();
  Service S(loadBundle(), Batched);
  telemetry::Histogram &BatchSize =
      telemetry::MetricsRegistry::global().histogram(
          "serve.batch.size", telemetry::linearBounds(1, 32));
  const uint64_t Batches0 = BatchSize.count();
  const double Sizes0 = BatchSize.sum();
  std::vector<std::string> BatchedResponses(Lines.size());
  S.pause(); // Everything queues, then lands in one batch.
  std::mutex M;
  for (size_t I = 0; I < Lines.size(); ++I)
    S.submit(Lines[I], [&BatchedResponses, &M, I](std::string Response) {
      std::lock_guard<std::mutex> L(M);
      BatchedResponses[I] = std::move(Response);
    });
  EXPECT_EQ(S.queueDepth(), Lines.size());
  S.resume();
  S.drain();

  EXPECT_EQ(BatchedResponses, SequentialResponses);
  EXPECT_EQ(BatchSize.count(), Batches0 + 1); // One batch...
  EXPECT_EQ(BatchSize.sum(), Sizes0 + 4.0);   // ...of all four.
}

TEST(Serve, ExplainTotalsMatchCandidateScores) {
  Service S(loadBundle());
  json::Value Doc = parsed(
      S.handleOne(requestLine(MinifiedFlag, ",\"explain\":true")));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  size_t Paths = 0;
  for (const json::Value &P : Doc.find("predictions")->array()) {
    const json::Value *Explain = P.find("explain");
    if (!Explain)
      continue; // No valid prediction for this element.
    double Total = Explain->find("total")->number();
    // explain() decomposes the score of the predicted label; that label
    // is one of the candidates, so its exact score must appear there.
    bool Found = false;
    for (const json::Value &C : P.find("candidates")->array())
      Found |= telemetry::jsonNumber(C.find("score")->number()) ==
               telemetry::jsonNumber(Total);
    EXPECT_TRUE(Found);
    EXPECT_LE(Explain->find("paths")->array().size(), 5u);
    // Paths render over the request's overlay of the bundle's interner.
    for (const json::Value &Path : Explain->find("paths")->array()) {
      const std::string &Text = Path.find("path")->str();
      EXPECT_FALSE(Text.empty());
      EXPECT_NE(Text, "<bad-path>");
      ++Paths;
    }
  }
  EXPECT_GT(Paths, 0u);
}

//===----------------------------------------------------------------------===//
// Protocol error paths
//===----------------------------------------------------------------------===//

TEST(Serve, MalformedJsonIsIsolated) {
  Service S(loadBundle());
  json::Value Bad = parsed(S.handleOne("this is not json"));
  EXPECT_FALSE(Bad.find("ok")->boolean());
  EXPECT_EQ(errorCode(Bad), "bad_request");
  // The service survives and keeps answering.
  json::Value Good = parsed(S.handleOne(requestLine(MinifiedFlag)));
  EXPECT_TRUE(Good.find("ok")->boolean());
}

TEST(Serve, NonObjectAndBadFieldsAreBadRequests) {
  Service S(loadBundle());
  EXPECT_EQ(errorCode(parsed(S.handleOne("[1,2,3]"))), "bad_request");
  EXPECT_EQ(errorCode(parsed(S.handleOne("{\"source\":\"x\"}"))),
            "bad_request"); // Missing lang.
  EXPECT_EQ(errorCode(parsed(S.handleOne("{\"lang\":\"js\"}"))),
            "bad_request"); // Missing source.
  EXPECT_EQ(errorCode(parsed(S.handleOne(
                requestLine(MinifiedFlag, ",\"k\":0")))),
            "bad_request");
  EXPECT_EQ(errorCode(parsed(S.handleOne(
                requestLine(MinifiedFlag, ",\"k\":\"three\"")))),
            "bad_request");
  EXPECT_EQ(errorCode(parsed(S.handleOne(
                requestLine(MinifiedFlag, ",\"explain\":\"yes\"")))),
            "bad_request");
  EXPECT_EQ(errorCode(parsed(S.handleOne(
                requestLine(MinifiedFlag, ",\"id\":{\"no\":1}")))),
            "bad_request");
  EXPECT_EQ(errorCode(parsed(S.handleOne(
                requestLine(MinifiedFlag, ",\"deadline_ms\":-1")))),
            "bad_request");
}

/// Answers \p Line on \p S and expects the error \p Code in the response
/// and in the metrics: `serve.responses.error.<Code>` rises by one while
/// `serve.responses.error.bad_request` stays put.
void expectCountedRejection(Service &S, const std::string &Line,
                            const std::string &Code) {
  auto &Reg = telemetry::MetricsRegistry::global();
  telemetry::Counter &ByCode = Reg.counter("serve.responses.error." + Code);
  telemetry::Counter &BadRequest =
      Reg.counter("serve.responses.error.bad_request");
  const uint64_t ByCode0 = ByCode.value();
  const uint64_t BadRequest0 = BadRequest.value();
  EXPECT_EQ(errorCode(parsed(S.handleOne(Line))), Code);
  EXPECT_EQ(ByCode.value(), ByCode0 + 1) << Code;
  EXPECT_EQ(BadRequest.value(), BadRequest0) << Code;
}

TEST(Serve, UnknownAndMismatchedLang) {
  Service S(loadBundle());
  expectCountedRejection(S, "{\"lang\":\"golang\",\"source\":\"x\"}",
                         "unknown_lang");
  expectCountedRejection(
      S, "{\"lang\":\"java\",\"source\":\"class C {}\"}", "lang_mismatch");
}

TEST(Serve, UnknownTaskAndTaskMismatch) {
  Service S(loadBundle());
  expectCountedRejection(
      S, "{\"lang\":\"js\",\"task\":\"frobnicate\",\"source\":\"var x;\"}",
      "unknown_task");
  expectCountedRejection(
      S, "{\"lang\":\"js\",\"task\":\"methods\",\"source\":\"var x;\"}",
      "task_mismatch");
}

TEST(Serve, OversizedSourceRejected) {
  ServeConfig Config;
  Config.MaxSourceBytes = 64;
  Service S(loadBundle(), Config);
  expectCountedRejection(S, requestLine(std::string(100, 'x')),
                         "source_too_large");
}

TEST(Serve, DeadlineExceededWhileQueued) {
  Service S(loadBundle());
  S.pause();
  std::promise<std::string> Result;
  std::future<std::string> F = Result.get_future();
  S.submit(requestLine(MinifiedFlag, ",\"id\":7,\"deadline_ms\":5"),
           [&Result](std::string R) { Result.set_value(std::move(R)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  S.resume();
  json::Value Doc = parsed(F.get());
  EXPECT_EQ(errorCode(Doc), "deadline_exceeded");
  EXPECT_EQ(Doc.find("id")->numberOr(-1), 7.0); // Id still echoed.
}

TEST(Serve, DeadlineIsCheckedBetweenStages) {
  // The slow chain costs far more than 20 ms to extract, yet passes the
  // check at decode. The request must stop at the stage that ran over
  // and answer deadline_exceeded instead of going on to inference.
  Service S(loadBundle());
  json::Value Doc = parsed(S.handleOne(
      requestLine(slowChain(), ",\"id\":5,\"deadline_ms\":20")));
  ASSERT_EQ(errorCode(Doc), "deadline_exceeded");
  EXPECT_EQ(Doc.find("id")->numberOr(-1), 5.0);
  std::string Message = Doc.find("error")->find("message")->strOr("");
  EXPECT_TRUE(Message.find(" in parse") != std::string::npos ||
              Message.find(" in extract") != std::string::npos)
      << Message;
}

TEST(Serve, QueueFullAnswersOverloadedImmediately) {
  ServeConfig Config;
  Config.QueueCapacity = 2;
  Service S(loadBundle(), Config);
  S.pause();
  std::vector<std::future<std::string>> Queued;
  for (int I = 0; I < 2; ++I) {
    auto P = std::make_shared<std::promise<std::string>>();
    Queued.push_back(P->get_future());
    S.submit(requestLine(MinifiedFlag),
             [P](std::string R) { P->set_value(std::move(R)); });
  }
  // Third request: rejected synchronously, while the batcher is paused.
  std::string Rejected;
  S.submit(requestLine(MinifiedFlag),
           [&Rejected](std::string R) { Rejected = std::move(R); });
  ASSERT_FALSE(Rejected.empty());
  EXPECT_EQ(errorCode(parsed(Rejected)), "overloaded");

  S.resume();
  for (auto &F : Queued)
    EXPECT_TRUE(parsed(F.get()).find("ok")->boolean());
}

TEST(Serve, SubmitAfterShutdownAnswersShuttingDown) {
  Service S(loadBundle());
  EXPECT_TRUE(
      parsed(S.handleOne(requestLine(MinifiedFlag))).find("ok")->boolean());
  S.shutdown();
  std::string Response;
  S.submit(requestLine(MinifiedFlag),
           [&Response](std::string R) { Response = std::move(R); });
  EXPECT_EQ(errorCode(parsed(Response)), "shutting_down");
}

TEST(Serve, ParseFailureIsAStructuredError) {
  Service S(loadBundle());
  // The JS frontend produces no tree for input this broken.
  json::Value Doc =
      parsed(S.handleOne("{\"lang\":\"js\",\"source\":\")(}{\"}"));
  std::string Code = errorCode(Doc);
  // Either outcome is protocol-conforming as the frontends evolve: a
  // structured parse error, or a best-effort tree with no predictions.
  if (!Code.empty())
    EXPECT_EQ(Code, "parse_failed");
  else
    EXPECT_TRUE(Doc.find("ok")->boolean());
  // Still alive.
  EXPECT_TRUE(
      parsed(S.handleOne(requestLine(MinifiedFlag))).find("ok")->boolean());
}

TEST(Serve, DrainWaitsForTheBatchInFlight) {
  // Regression: once a worker has popped a batch, the queue is empty
  // while the requests live in the worker's hands — drain() must still
  // treat the service as busy. It used to return through that gap,
  // letting stream front-ends destroy the write path with a response
  // still pending. The slow chain holds the batch open.
  Service S(loadBundle());
  std::atomic<bool> Answered{false};
  S.submit(requestLine(slowChain()),
           [&Answered](std::string) { Answered = true; });
  while (S.queueDepth() != 0)
    std::this_thread::yield(); // A worker took it.
  S.drain();
  EXPECT_TRUE(Answered.load());
}

TEST(Serve, IdleWorkerTakesTheNextRequest) {
  // One worker is busy on the slow chain; the next request must go to
  // the idle one and be answered while the slow one still runs, never
  // queue behind it.
  ServeConfig Config;
  Config.Workers = 2;
  Service S(loadBundle(), Config);
  std::atomic<bool> SlowAnswered{false};
  S.submit(requestLine(slowChain()),
           [&SlowAnswered](std::string) { SlowAnswered = true; });
  while (S.queueDepth() != 0)
    std::this_thread::yield(); // A worker took it.
  json::Value Fast = parsed(S.handleOne(requestLine(MinifiedFlag)));
  EXPECT_TRUE(Fast.find("ok")->boolean());
  EXPECT_FALSE(SlowAnswered.load());
  S.drain();
  EXPECT_TRUE(SlowAnswered.load());
}

TEST(Serve, ZeroMaxBatchStillAnswers) {
  // Regression: with MaxBatch 0 the take loop popped nothing, so the one
  // worker spun on a non-empty queue forever and never answered.
  ServeConfig Config;
  Config.Workers = 1;
  Config.MaxBatch = 0;
  auto S = std::make_unique<Service>(loadBundle(), Config);
  std::promise<std::string> Response;
  std::future<std::string> Answer = Response.get_future();
  S->submit(requestLine(MinifiedFlag), [&Response](std::string Line) {
    Response.set_value(std::move(Line));
  });
  if (Answer.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    (void)S.release(); // Its worker never returns: joining would hang.
    FAIL() << "request unanswered";
  }
  EXPECT_TRUE(parsed(Answer.get()).find("ok")->boolean());
}

//===----------------------------------------------------------------------===//
// Front-ends and shutdown
//===----------------------------------------------------------------------===//

TEST(Serve, StreamFrontEndAnswersEveryLineThenEofCleanly) {
  // Several workers, so completions can come back out of order: the
  // front-end must still answer in request order.
  ServeConfig Config;
  Config.Workers = 4;
  Service S(loadBundle(), Config);
  // A line nested far past the parsers' budget gets parse_failed, a
  // 4 MiB line arriving over a thousand reads gets source_too_large, and
  // the lines around them are still answered.
  std::string Deep = "function h(x) { return " + std::string(10000, '(') +
                     "x" + std::string(10000, ')') + "; }";
  std::string Huge(4u << 20, 'x');
  std::istringstream Lines(serveOverPipes(
      S, requestLine(MinifiedFlag, ",\"id\":1") + "\n" + "garbage\n" +
             requestLine(Deep, ",\"id\":2") + "\n" +
             requestLine(Huge, ",\"id\":\"huge\"") + "\n" +
             requestLine(MinifiedLoop, ",\"id\":3") + "\n"));
  std::vector<json::Value> Docs;
  std::string Line;
  while (std::getline(Lines, Line))
    Docs.push_back(parsed(Line));
  ASSERT_EQ(Docs.size(), 5u);
  // Request order: id 1, the garbage line (null id), id 2, the huge
  // line, id 3.
  EXPECT_EQ(Docs[0].find("id")->numberOr(-1), 1.0);
  EXPECT_TRUE(Docs[0].find("ok")->boolean());
  EXPECT_TRUE(Docs[1].find("id")->isNull());
  EXPECT_EQ(errorCode(Docs[1]), "bad_request");
  EXPECT_EQ(Docs[2].find("id")->numberOr(-1), 2.0);
  EXPECT_EQ(errorCode(Docs[2]), "parse_failed");
  EXPECT_EQ(Docs[3].find("id")->strOr(""), "huge");
  EXPECT_EQ(errorCode(Docs[3]), "source_too_large");
  EXPECT_EQ(Docs[4].find("id")->numberOr(-1), 3.0);
  EXPECT_TRUE(Docs[4].find("ok")->boolean());
}

TEST(Serve, FdLoopDrainsOnEof) {
  int InPipe[2], OutPipe[2];
  ASSERT_EQ(::pipe(InPipe), 0);
  ASSERT_EQ(::pipe(OutPipe), 0);
  Service S(loadBundle());
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { serveFdLoop(S, InPipe[0], OutPipe[1], Stop); });
  std::string Line = requestLine(MinifiedFlag, ",\"id\":9") + "\n";
  ASSERT_EQ(::write(InPipe[1], Line.data(), Line.size()),
            static_cast<ssize_t>(Line.size()));
  ::close(InPipe[1]); // EOF: the loop must drain, flush, and return.
  Loop.join();
  ::close(OutPipe[1]);
  std::string Response;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(OutPipe[0], Buf, sizeof(Buf))) > 0)
    Response.append(Buf, static_cast<size_t>(N));
  ::close(InPipe[0]);
  ::close(OutPipe[0]);
  ASSERT_FALSE(Response.empty());
  json::Value Doc = parsed(Response.substr(0, Response.find('\n')));
  EXPECT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("id")->numberOr(-1), 9.0);
}

TEST(Serve, FdLoopStopsOnSignalFlag) {
  int InPipe[2], OutPipe[2];
  ASSERT_EQ(::pipe(InPipe), 0);
  ASSERT_EQ(::pipe(OutPipe), 0);
  Service S(loadBundle());
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { serveFdLoop(S, InPipe[0], OutPipe[1], Stop); });
  // No EOF — the stop flag (what SIGTERM sets) must end the loop within
  // one poll interval, draining first.
  Stop.store(true);
  Loop.join();
  ::close(InPipe[1]);
  ::close(InPipe[0]);
  ::close(OutPipe[1]);
  ::close(OutPipe[0]);
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(Serve, RequestsAndBatchSizeAreInstrumented) {
  auto &Reg = telemetry::MetricsRegistry::global();
  uint64_t Requests0 = Reg.counter("serve.requests").value();
  uint64_t Ok0 = Reg.counter("serve.responses.ok").value();
  uint64_t Err0 = Reg.counter("serve.responses.error").value();
  uint64_t Batches0 =
      Reg.histogram("serve.batch.size", telemetry::linearBounds(1, 32))
          .count();

  Service S(loadBundle());
  S.handleOne(requestLine(MinifiedFlag));
  S.handleOne("nope");

  EXPECT_EQ(Reg.counter("serve.requests").value(), Requests0 + 2);
  EXPECT_EQ(Reg.counter("serve.responses.ok").value(), Ok0 + 1);
  EXPECT_EQ(Reg.counter("serve.responses.error").value(), Err0 + 1);
  EXPECT_GE(Reg.counter("serve.responses.error.bad_request").value(), 1u);
  EXPECT_GE(Reg.histogram("serve.batch.size", telemetry::linearBounds(1, 32))
                .count(),
            Batches0 + 2);
  EXPECT_GE(Reg.histogram("serve.request.seconds", telemetry::timeBounds())
                .count(),
            2u);
}

TEST(Serve, RequestsAppearInTheEventStream) {
  std::ostringstream Events;
  telemetry::EventLog::global().attach(Events);
  {
    Service S(loadBundle());
    S.handleOne(requestLine(MinifiedFlag, ",\"id\":\"traced\""));
  }
  telemetry::EventLog::global().close();
  EXPECT_NE(Events.str().find("\"serve.request\""), std::string::npos);
  EXPECT_NE(Events.str().find("\"traced\""), std::string::npos);
  EXPECT_NE(Events.str().find("serve.batch"), std::string::npos);
}

TEST(Serve, WindowedAndHighWaterMetricsAreWired) {
  auto &Reg = telemetry::MetricsRegistry::global();
  Service S(loadBundle());
  // The sliding windows exist before any traffic (eager registration)...
  EXPECT_GE(Reg.numWindowed(), 3u);
  S.handleOne(requestLine(MinifiedFlag));
  // ...and request latency lands in the last-minute window.
  EXPECT_GE(Reg.windowed("serve.request.seconds", telemetry::timeBounds())
                .snapshot()
                .Count,
            1u);
  EXPECT_GE(
      Reg.windowed("serve.batch.size", telemetry::linearBounds(1, 32))
          .snapshot()
          .Count,
      1u);

  // Queue high-water: three requests held in the queue push the gauge to
  // at least 3.
  S.pause();
  std::vector<std::future<std::string>> Held;
  for (int I = 0; I < 3; ++I) {
    auto P = std::make_shared<std::promise<std::string>>();
    Held.push_back(P->get_future());
    S.submit(requestLine(MinifiedFlag),
             [P](std::string R) { P->set_value(std::move(R)); });
  }
  EXPECT_GE(Reg.gauge("serve.queue.depth.max").value(), 3.0);
  S.resume();
  for (auto &F : Held)
    F.get();
}

//===----------------------------------------------------------------------===//
// Admin protocol (pigeon.admin.v1)
//===----------------------------------------------------------------------===//

TEST(Serve, AdminMetricsReturnsEmbeddedSnapshot) {
  Service S(loadBundle());
  S.handleOne(requestLine(MinifiedFlag)); // Some traffic to report.
  json::Value Doc = parsed(S.handleOne("{\"id\":7,\"admin\":\"metrics\"}"));
  EXPECT_EQ(Doc.find("schema")->strOr(""), "pigeon.admin.v1");
  EXPECT_EQ(Doc.find("id")->numberOr(-1), 7.0);
  ASSERT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("admin")->strOr(""), "metrics");
  const json::Value *Metrics = Doc.find("metrics");
  ASSERT_TRUE(Metrics && Metrics->isObject());
  EXPECT_EQ(Metrics->find("schema")->strOr(""), "pigeon.metrics.v1");
  ASSERT_TRUE(Metrics->find("windowed")->isObject());
  EXPECT_TRUE(Metrics->find("windowed")->find("serve.request.seconds") !=
              nullptr);
}

TEST(Serve, AdminHealthReportsBundleAndQueueState) {
  Service S(loadBundle());
  json::Value Doc = parsed(S.handleOne("{\"admin\":\"health\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  EXPECT_TRUE(Doc.find("id")->isNull()); // No id: echoed as null.
  const json::Value *H = Doc.find("health");
  ASSERT_TRUE(H && H->isObject());
  EXPECT_EQ(H->find("status")->strOr(""), "ok");
  EXPECT_EQ(H->find("lang")->strOr(""), "js");
  EXPECT_EQ(H->find("task")->strOr(""), "vars");
  EXPECT_GT(H->find("features")->numberOr(-1), 0.0);
  EXPECT_GT(H->find("symbols")->numberOr(-1), 0.0);
  EXPECT_GE(H->find("uptime_seconds")->numberOr(-1), 0.0);
  EXPECT_EQ(H->find("in_flight")->numberOr(-1), 0.0);
  EXPECT_EQ(H->find("queue_depth")->numberOr(-1), 0.0);
  EXPECT_EQ(H->find("queue_capacity")->numberOr(-1), 256.0);
  EXPECT_FALSE(H->find("paused")->boolean());
  EXPECT_FALSE(H->find("draining")->boolean());
}

TEST(Serve, AdminSloComparesWindowedP99AgainstTarget) {
  // Without a target: disabled, verdict unknown.
  {
    Service S(loadBundle());
    json::Value Doc = parsed(S.handleOne("{\"admin\":\"slo\"}"));
    ASSERT_TRUE(Doc.find("ok")->boolean());
    const json::Value *Slo = Doc.find("slo");
    ASSERT_TRUE(Slo && Slo->isObject());
    EXPECT_TRUE(Slo->find("target_p99_ms")->isNull());
    EXPECT_TRUE(Slo->find("ok")->isNull());
  }
  // With a generous target and recent traffic: a concrete verdict.
  ServeConfig Config;
  Config.SloP99Ms = 60000; // Any completed request beats one minute.
  Service S(loadBundle(), Config);
  S.handleOne(requestLine(MinifiedFlag));
  json::Value Doc = parsed(S.handleOne("{\"id\":\"s\",\"admin\":\"slo\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *Slo = Doc.find("slo");
  ASSERT_TRUE(Slo && Slo->isObject());
  EXPECT_EQ(Slo->find("target_p99_ms")->numberOr(-1), 60000.0);
  EXPECT_GE(Slo->find("count")->numberOr(-1), 1.0);
  EXPECT_GE(Slo->find("p99_ms")->numberOr(-1), 0.0);
  ASSERT_TRUE(Slo->find("ok")->isBool());
  EXPECT_TRUE(Slo->find("ok")->boolean());
}

TEST(Serve, AdminProfileReportsThePhaseTree) {
  Service S(loadBundle());
  S.handleOne(requestLine(MinifiedFlag));
  json::Value Doc = parsed(S.handleOne("{\"admin\":\"profile\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *P = Doc.find("profile");
  ASSERT_TRUE(P && P->isObject());
  const json::Value *Lines = P->find("lines");
  ASSERT_TRUE(Lines && Lines->isArray());
  // The serve stages are phases under serve.batch.
  const json::Value *Parse = nullptr;
  for (const json::Value &L : Lines->array())
    if (L.find("stack")->strOr("") == "serve.batch;serve.parse")
      Parse = &L;
  ASSERT_NE(Parse, nullptr);
  EXPECT_GE(Parse->find("calls")->numberOr(0), 1.0);
  const json::Value *SelfUs = Parse->find("self_us");
  ASSERT_TRUE(SelfUs && SelfUs->isNumber());
  // `folded` renders the same lines as flamegraph.pl stacks.
  const json::Value *Folded = P->find("folded");
  ASSERT_TRUE(Folded && Folded->isString());
  std::string Line = "serve.batch;serve.parse " +
                     std::to_string(static_cast<uint64_t>(SelfUs->number()));
  EXPECT_NE(("\n" + Folded->str()).find("\n" + Line + "\n"),
            std::string::npos)
      << Folded->str();
}

// Per request at batch size 1 the flight recorder takes 15 records: the
// span pairs of serve.batch, its five stages and crf.predict, plus the
// serve.request record. The stages' parallel regions have one chunk
// each, and a one-chunk region emits no parallel.chunk span.
TEST(Serve, OneRequestAddsNoChunkSpanToTheRing) {
  Service S(loadBundle()); // Ctor arms the global flight recorder.
  auto &Log = telemetry::EventLog::global();
  S.handleOne(requestLine(MinifiedFlag));
  S.drain();
  const uint64_t Before = Log.ringTotal();
  ASSERT_TRUE(parsed(S.handleOne(requestLine(MinifiedLoop)))
                  .find("ok")
                  ->boolean());
  S.drain(); // The batch's scopes close after the response is handed off.
  const uint64_t Added = Log.ringTotal() - Before;
  std::vector<std::string> Ring = Log.ringSnapshot();
  ASSERT_LE(Added, Ring.size());
  size_t Chunks = 0;
  std::vector<std::string> Spans;
  for (size_t I = Ring.size() - Added; I < Ring.size(); ++I) {
    json::Value R = parsed(Ring[I]);
    std::string Name = R.find("name") ? R.find("name")->strOr("") : "";
    Chunks += Name == "parallel.chunk";
    if (R.find("event")->strOr("") == "span.begin")
      Spans.push_back(Name);
  }
  EXPECT_EQ(Chunks, 0u);
  EXPECT_EQ(Spans, (std::vector<std::string>{
                       "serve.batch", "serve.decode", "serve.parse",
                       "serve.extract", "serve.predict", "crf.predict",
                       "serve.render"}));
  EXPECT_EQ(Added, 15u);
  Log.disableRing();
}

TEST(Serve, AdminPromReturnsExpositionText) {
  Service S(loadBundle());
  S.handleOne(requestLine(MinifiedFlag));
  json::Value Doc = parsed(S.handleOne("{\"admin\":\"prom\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *Prom = Doc.find("prom");
  ASSERT_TRUE(Prom && Prom->isString());
  EXPECT_NE(Prom->str().find("# HELP "), std::string::npos);
  EXPECT_NE(Prom->str().find("serve_requests_total "), std::string::npos);
  EXPECT_NE(Prom->str().find("serve_request_seconds_bucket{le="),
            std::string::npos);
}

TEST(Serve, AdminUnknownVerbAndBadShapesAreBadRequests) {
  auto &Reg = telemetry::MetricsRegistry::global();
  uint64_t Bad0 = Reg.counter("serve.admin.bad_request").value();
  Service S(loadBundle());

  json::Value Unknown =
      parsed(S.handleOne("{\"id\":3,\"admin\":\"frobnicate\"}"));
  EXPECT_EQ(Unknown.find("schema")->strOr(""), "pigeon.admin.v1");
  EXPECT_FALSE(Unknown.find("ok")->boolean());
  EXPECT_EQ(Unknown.find("id")->numberOr(-1), 3.0);
  EXPECT_EQ(errorCode(Unknown), "bad_request");
  EXPECT_EQ(Reg.counter("serve.admin.bad_request").value(), Bad0 + 1);

  json::Value NonString = parsed(S.handleOne("{\"admin\":42}"));
  EXPECT_EQ(NonString.find("schema")->strOr(""), "pigeon.admin.v1");
  EXPECT_EQ(errorCode(NonString), "bad_request");

  json::Value BadId =
      parsed(S.handleOne("{\"id\":[1],\"admin\":\"health\"}"));
  EXPECT_EQ(BadId.find("schema")->strOr(""), "pigeon.admin.v1");
  EXPECT_EQ(errorCode(BadId), "bad_request");

  // A serve request whose *source* mentions admin is not an admin
  // request: it goes down the normal path.
  json::Value Normal = parsed(S.handleOne(
      "{\"lang\":\"js\",\"source\":\"var admin = 1;\"}"));
  EXPECT_EQ(Normal.find("schema")->strOr(""), "pigeon.serve.v1");
}

TEST(Serve, AdminIsNotCountedAsServeTraffic) {
  auto &Reg = telemetry::MetricsRegistry::global();
  Service S(loadBundle());
  uint64_t Requests0 = Reg.counter("serve.requests").value();
  uint64_t Admin0 = Reg.counter("serve.admin.requests").value();
  S.handleOne("{\"admin\":\"health\"}");
  S.handleOne("{\"admin\":\"metrics\"}");
  EXPECT_EQ(Reg.counter("serve.requests").value(), Requests0);
  EXPECT_EQ(Reg.counter("serve.admin.requests").value(), Admin0 + 2);
}

TEST(Serve, AdminAnswersWhilePausedAndWhenQueueIsFull) {
  ServeConfig Config;
  Config.QueueCapacity = 2;
  Service S(loadBundle(), Config);
  S.pause();
  std::vector<std::future<std::string>> Held;
  for (int I = 0; I < 2; ++I) {
    auto P = std::make_shared<std::promise<std::string>>();
    Held.push_back(P->get_future());
    S.submit(requestLine(MinifiedFlag),
             [P](std::string R) { P->set_value(std::move(R)); });
  }
  // The queue is full and the batcher is paused — a serve request would
  // answer `overloaded`, but admin introspection must still work, and
  // must see the congestion it is there to diagnose.
  std::string Response;
  S.submit("{\"admin\":\"health\"}",
           [&Response](std::string R) { Response = std::move(R); });
  ASSERT_FALSE(Response.empty()); // Answered synchronously.
  json::Value Doc = parsed(Response);
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *H = Doc.find("health");
  EXPECT_EQ(H->find("queue_depth")->numberOr(-1), 2.0);
  EXPECT_GE(H->find("queue_high_water")->numberOr(-1), 2.0);
  EXPECT_TRUE(H->find("paused")->boolean());
  S.resume();
  for (auto &F : Held)
    F.get();
}

TEST(Serve, AdminHealthReportsDrainingAfterShutdown) {
  Service S(loadBundle());
  S.shutdown();
  std::string Response;
  S.submit("{\"admin\":\"health\"}",
           [&Response](std::string R) { Response = std::move(R); });
  ASSERT_FALSE(Response.empty());
  json::Value Doc = parsed(Response);
  ASSERT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("health")->find("status")->strOr(""), "draining");
  EXPECT_TRUE(Doc.find("health")->find("draining")->boolean());
}

//===----------------------------------------------------------------------===//
// Request-scoped tracing: rids, timing echo, slow log, flight recorder
//===----------------------------------------------------------------------===//

TEST(Serve, RidIsEchoedInAdmissionOrderOnEveryOutcome) {
  Service S(loadBundle());
  // Success and structured error both carry the rid, placed right after
  // the schema so the envelope prefix is greppable.
  std::string First = S.handleOne(requestLine(MinifiedFlag, ",\"id\":1"));
  EXPECT_EQ(First.rfind("{\"schema\":\"pigeon.serve.v1\",\"rid\":1,", 0),
            0u);
  std::string Second =
      S.handleOne("{\"lang\":\"js\",\"id\":2,\"source\":42}");
  json::Value Doc = parsed(Second);
  EXPECT_EQ(errorCode(Doc), "bad_request");
  EXPECT_DOUBLE_EQ(Doc.find("rid")->numberOr(-1), 2.0);

  // Rids are unique per service across connections: handleOne and the
  // fd front end share one admission sequence.
  std::string Output =
      serveOverPipes(S, requestLine(MinifiedFlag, ",\"id\":3") + "\n");
  json::Value Streamed = parsed(Output.substr(0, Output.find('\n')));
  EXPECT_DOUBLE_EQ(Streamed.find("rid")->numberOr(-1), 3.0);
}

TEST(Serve, AdmissionRejectionsCarryNoRid) {
  // A request refused before admission never got a sequence number;
  // inventing one would break the "rid = admission order" contract.
  Service S(loadBundle());
  S.shutdown();
  std::string Response;
  S.submit(requestLine(MinifiedFlag),
           [&Response](std::string R) { Response = std::move(R); });
  ASSERT_FALSE(Response.empty());
  EXPECT_EQ(errorCode(parsed(Response)), "shutting_down");
  EXPECT_EQ(Response.find("\"rid\""), std::string::npos);
}

TEST(Serve, TimingEchoDecomposesTheMeasuredLatency) {
  Service S(loadBundle());
  json::Value Doc = parsed(
      S.handleOne(requestLine(MinifiedFlag, ",\"timing\":true")));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *T = Doc.find("timing");
  ASSERT_TRUE(T && T->isObject());

  double Total = T->find("total_ms")->numberOr(-1);
  EXPECT_GT(Total, 0.0);
  double Sum = 0;
  // The stage names say what they time: decode is its own stage, and
  // extraction + graph assembly is `extract`.
  for (const char *Stage : {"queue_ms", "seal_ms", "decode_ms", "parse_ms",
                            "extract_ms", "predict_ms", "render_ms"}) {
    const json::Value *V = T->find(Stage);
    ASSERT_TRUE(V && V->isNumber()) << Stage;
    EXPECT_GE(V->number(), 0.0) << Stage;
    Sum += V->number();
  }
  EXPECT_EQ(T->find("remap_ms"), nullptr);
  // The seven stages partition the admit→respond interval: their sum is
  // the total up to rendering rounding (well inside the 5% the
  // acceptance criterion allows).
  EXPECT_NEAR(Sum, Total, Total * 0.001);
  EXPECT_GE(T->find("batch_size")->numberOr(0), 1.0);
  EXPECT_GE(T->find("depth_at_admit")->numberOr(-1), 0.0);
}

TEST(Serve, TimingAbsentOrFalseLeavesTheResponseUntouched) {
  Service S(loadBundle());
  std::string Plain = S.handleOne(requestLine(MinifiedFlag, ",\"id\":9"));
  EXPECT_EQ(Plain.find("\"timing\""), std::string::npos);
  // `"timing": false` renders byte-identically to the flag being absent
  // (same service, so the rid advances by exactly one).
  std::string Off =
      S.handleOne(requestLine(MinifiedFlag, ",\"id\":9,\"timing\":false"));
  EXPECT_EQ(Off.replace(Off.find("\"rid\":2"), 7, "\"rid\":1"), Plain);
  // A non-boolean timing flag is a bad request, like every other typed
  // field.
  json::Value Bad = parsed(
      S.handleOne(requestLine(MinifiedFlag, ",\"timing\":1")));
  EXPECT_EQ(errorCode(Bad), "bad_request");
}

TEST(Serve, SlowLogCapturesRequestsAboveTheThreshold) {
  telemetry::EventLog &Log = telemetry::EventLog::global();
  const std::string Path = ::testing::TempDir() + "serve_slow.jsonl";

  // Threshold far above any real latency: nothing is captured.
  {
    Log.openSlowLog(Path);
    ServeConfig Config;
    Config.SlowTraceMs = 60000;
    Service S(loadBundle(), Config);
    S.handleOne(requestLine(MinifiedFlag));
    EXPECT_TRUE(Log.slowLogSnapshot().empty());
  }

  // A synthetic straggler: the request sits in a paused queue for
  // ~100 ms, far over the 20 ms threshold. The capture's stage timeline
  // must account for the measured total — the queue stage is where the
  // time went — and be the very line the event stream got.
  std::ostringstream Events;
  {
    Log.openSlowLog(Path); // Reopen: clears the previous capture state.
    Log.attach(Events);
    ServeConfig Config;
    Config.SlowTraceMs = 20;
    Service S(loadBundle(), Config);
    S.pause();
    std::promise<std::string> P;
    std::future<std::string> F = P.get_future();
    S.submit(requestLine(MinifiedFlag, ",\"id\":\"slow\""),
             [&P](std::string R) { P.set_value(std::move(R)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    S.resume();
    F.get();
  }
  Log.close();

  std::vector<std::string> Lines = Log.slowLogSnapshot();
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Events.str().find("\n" + Lines[0] + "\n"), std::string::npos);
  json::Value Entry = parsed(Lines[0]);
  EXPECT_EQ(Entry.find("event")->strOr(""), "serve.request");
  EXPECT_EQ(Entry.find("id")->strOr(""), "slow");
  EXPECT_TRUE(Entry.find("ok")->boolean());
  double Total = Entry.find("total_ms")->numberOr(0);
  EXPECT_GE(Total, 100.0);
  double Sum = 0;
  for (const char *Stage : StageNames)
    Sum += Entry.find(std::string(Stage) + "_ms")->numberOr(0);
  EXPECT_NEAR(Sum, Total, Total * 0.05);
  EXPECT_GE(Entry.find("queue_ms")->numberOr(0), 90.0);
  EXPECT_EQ(Entry.find("batch_size")->numberOr(0), 1.0);

  // The capture file is written on close.
  ASSERT_TRUE(Log.closeSlowLog());
  EXPECT_FALSE(Log.slowLogEnabled());
  std::ifstream In(Path);
  std::string Written;
  ASSERT_TRUE(std::getline(In, Written));
  EXPECT_EQ(Written, Lines[0]);
  std::remove(Path.c_str());
}

TEST(Serve, AdminFlightrecReturnsTheRecentRecords) {
  Service S(loadBundle()); // Ctor arms the global flight recorder.
  S.handleOne(requestLine(MinifiedFlag, ",\"id\":\"flight\""));
  json::Value Doc = parsed(S.handleOne("{\"id\":4,\"admin\":\"flightrec\"}"));
  EXPECT_EQ(Doc.find("schema")->strOr(""), "pigeon.admin.v1");
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *F = Doc.find("flightrec");
  ASSERT_TRUE(F && F->isObject());
  EXPECT_EQ(F->find("capacity")->numberOr(-1), 256.0);
  EXPECT_GE(F->find("count")->numberOr(-1), 1.0);
  EXPECT_GE(F->find("total")->numberOr(-1),
            F->find("count")->numberOr(-1));
  const json::Value *Records = F->find("records");
  ASSERT_TRUE(Records && Records->isArray());
  ASSERT_FALSE(Records->array().empty());
  bool SawRequest = false;
  for (const json::Value &R : Records->array()) {
    ASSERT_TRUE(R.isObject()); // Embedded verbatim, not re-escaped.
    if (const json::Value *E = R.find("event"))
      SawRequest |= E->strOr("") == "serve.request";
  }
  EXPECT_TRUE(SawRequest);
  telemetry::EventLog::global().disableRing();
}

TEST(Serve, FlightRecorderDisabledByZeroCapacity) {
  ServeConfig Config;
  Config.FlightRecorder = 0;
  Service S(loadBundle(), Config);
  EXPECT_FALSE(telemetry::EventLog::global().ringEnabled());
  json::Value Doc = parsed(S.handleOne("{\"admin\":\"flightrec\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("flightrec")->find("capacity")->numberOr(-1), 0.0);
  EXPECT_TRUE(Doc.find("flightrec")->find("records")->array().empty());
}

TEST(Serve, AdminHealthReportsWindowedRates) {
  Service S(loadBundle());
  S.handleOne(requestLine(MinifiedFlag));
  S.handleOne("not json either"); // One error for the error-rate window.
  json::Value Doc = parsed(S.handleOne("{\"admin\":\"health\"}"));
  ASSERT_TRUE(Doc.find("ok")->boolean());
  const json::Value *W = Doc.find("health")->find("window");
  ASSERT_TRUE(W && W->isObject());
  EXPECT_GT(W->find("seconds")->numberOr(0), 0.0);
  // The windows are process-global, so other tests' traffic may be in
  // here too — lower bounds only.
  EXPECT_GE(W->find("requests")->numberOr(-1), 2.0);
  EXPECT_GT(W->find("rate_per_sec")->numberOr(-1), 0.0);
  EXPECT_GE(W->find("errors")->numberOr(-1), 1.0);
  EXPECT_GT(W->find("error_rate_per_sec")->numberOr(-1), 0.0);
}

TEST(Serve, StageHistogramsAreFedPerRequest) {
  auto &Reg = telemetry::MetricsRegistry::global();
  Service S(loadBundle());
  std::array<uint64_t, NumStages> Before;
  for (size_t I = 0; I < NumStages; ++I)
    Before[I] = Reg.histogram("serve.stage." + std::string(StageNames[I]) +
                                  ".seconds",
                              telemetry::timeBounds())
                    .count();
  S.handleOne(requestLine(MinifiedFlag));
  for (size_t I = 0; I < NumStages; ++I)
    EXPECT_EQ(Reg.histogram("serve.stage." + std::string(StageNames[I]) +
                                ".seconds",
                            telemetry::timeBounds())
                  .count(),
              Before[I] + 1)
        << StageNames[I];
}

TEST(Serve, RequestEventsCarryTheStageTimeline) {
  std::ostringstream Events;
  telemetry::EventLog::global().attach(Events);
  {
    Service S(loadBundle());
    S.handleOne(requestLine(MinifiedFlag, ",\"id\":\"staged\""));
  }
  telemetry::EventLog::global().close();

  std::istringstream In(Events.str());
  std::string Line;
  bool Found = false;
  while (std::getline(In, Line)) {
    std::optional<json::Value> Doc = json::parse(Line);
    if (!Doc)
      continue;
    std::optional<RequestSample> Sample = parseRequestSample(*Doc);
    if (!Sample)
      continue;
    Found = true;
    EXPECT_GE(Sample->Rid, 1u);
    EXPECT_GT(Sample->TotalMs, 0.0);
    double Sum = 0;
    for (double Ms : Sample->StageMs)
      Sum += Ms;
    EXPECT_NEAR(Sum, Sample->TotalMs, Sample->TotalMs * 0.001);
    EXPECT_GE(Sample->BatchSize, 1u);
  }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Write-path robustness and transports
//===----------------------------------------------------------------------===//

/// Regression for the mid-frame response drop: the old write lambda
/// treated write() returning -1 with errno == EINTR as "peer gone" and
/// abandoned the rest of the frame, corrupting the newline-delimited
/// stream. writeAll must survive a storm of signals landing mid-write
/// (no SA_RESTART, so the syscall really returns EINTR), short writes
/// from a tiny send buffer, and EAGAIN from a non-blocking fd — and
/// still deliver every byte in order.
TEST(Serve, WriteAllSurvivesSignalsShortWritesAndEagain) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  int Small = 4096;
  ::setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  // Non-blocking writer: partial sends surface as short writes and
  // EAGAIN instead of blocking, exercising the poll-then-retry path.
  int Flags = ::fcntl(Fds[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(Fds[0], F_SETFL, Flags | O_NONBLOCK), 0);

  struct sigaction SA, Old;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int) {};
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // Deliberately no SA_RESTART: write() must see EINTR.
  ASSERT_EQ(::sigaction(SIGUSR1, &SA, &Old), 0);

  std::string Payload(1 << 20, '\0');
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<char>('a' + I % 26);

  std::atomic<bool> WriterDone{false};
  bool WriteOk = false;
  std::thread Writer([&] {
    WriteOk = writeAll(Fds[0], Payload);
    WriterDone.store(true, std::memory_order_release);
    ::shutdown(Fds[0], SHUT_WR); // EOF ends the reader below.
  });
  pthread_t Target = Writer.native_handle();

  std::string Received;
  char Buf[512];
  while (true) {
    if (!WriterDone.load(std::memory_order_acquire))
      ::pthread_kill(Target, SIGUSR1);
    ssize_t N = ::read(Fds[1], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Received.append(Buf, static_cast<size_t>(N));
  }
  Writer.join();
  ::sigaction(SIGUSR1, &Old, nullptr);
  ::close(Fds[0]);
  ::close(Fds[1]);

  EXPECT_TRUE(WriteOk);
  ASSERT_EQ(Received.size(), Payload.size());
  EXPECT_EQ(Received, Payload); // Every byte, in order — no torn frame.
}

/// The tentpole pin, mirrored on the pipeline's thread-count
/// invariance: N batcher workers must produce responses byte-identical
/// to a sequential single-worker service at every worker count. Each
/// worker parses and extracts into never-committed overlays of the
/// read-only resident bundle, so nothing one request interns can leak
/// into another's response.
TEST(Serve, ResponsesByteIdenticalAtAnyWorkerCount) {
  std::vector<std::string> Lines;
  for (int I = 0; I < 12; ++I)
    Lines.push_back(requestLine(
        I % 2 ? MinifiedLoop : MinifiedFlag,
        ",\"id\":" + std::to_string(I) +
            (I % 3 == 0 ? ",\"explain\":true" : "")));

  Service Sequential(loadBundle());
  std::vector<std::string> Expected;
  for (const std::string &Line : Lines)
    Expected.push_back(Sequential.handleOne(Line));

  for (size_t Workers : std::vector<size_t>{1, 2, 4, 0 /* hardware */}) {
    ServeConfig Config;
    Config.Workers = Workers;
    Config.MaxBatch = 3; // Force several batches per worker.
    Service S(loadBundle(), Config);
    std::vector<std::string> Got(Lines.size());
    S.pause(); // Queue everything, then let the workers race.
    std::mutex M;
    for (size_t I = 0; I < Lines.size(); ++I)
      S.submit(Lines[I], [&Got, &M, I](std::string Response) {
        std::lock_guard<std::mutex> L(M);
        Got[I] = std::move(Response);
      });
    S.resume();
    S.drain();
    EXPECT_EQ(Got, Expected) << "workers=" << Workers;
  }
}

/// A client that pipelines requests down one stream must read its
/// responses in the order it sent them, even though N workers finish
/// batches in no fixed order — the OrderedWriter contract. Pinned as full
/// byte-identity of the piped output at every worker count.
TEST(Serve, PipelinedStdioOutputByteIdenticalAtAnyWorkerCount) {
  std::string Input;
  for (int I = 0; I < 12; ++I)
    Input += requestLine(I % 2 ? MinifiedLoop : MinifiedFlag,
                         ",\"id\":" + std::to_string(I)) +
             "\n";

  auto RunLoop = [&Input](size_t Workers) {
    ServeConfig Config;
    Config.Workers = Workers;
    Config.MaxBatch = 3; // Force several batches per worker.
    Service S(loadBundle(), Config);
    int In[2], Out[2];
    EXPECT_EQ(0, ::pipe(In));
    EXPECT_EQ(0, ::pipe(Out));
    std::atomic<bool> Stop{false};
    std::thread Loop([&S, &In, &Out, &Stop] {
      serveFdLoop(S, In[0], Out[1], Stop);
      ::close(Out[1]); // EOF for the reader below.
    });
    EXPECT_TRUE(writeAll(In[1], Input));
    ::close(In[1]); // EOF lets the loop drain and exit.
    std::string All;
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Out[0], Buf, sizeof(Buf))) > 0)
      All.append(Buf, static_cast<size_t>(N));
    Loop.join();
    ::close(In[0]);
    ::close(Out[0]);
    return All;
  };

  const std::string Expected = RunLoop(1);
  EXPECT_NE(Expected.find("\"rid\":1"), std::string::npos);
  for (size_t Workers : std::vector<size_t>{2, 4, 0 /* hardware */})
    EXPECT_EQ(RunLoop(Workers), Expected) << "workers=" << Workers;
}

/// Reads until a full newline-terminated frame (or EOF) arrives.
std::string readFrame(int Fd) {
  std::string Data;
  char Buf[4096];
  while (Data.find('\n') == std::string::npos) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Data.append(Buf, static_cast<size_t>(N));
  }
  return Data;
}

int connectUnixRetry(const std::string &Path) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  for (int I = 0; I < 500; ++I) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      return Fd;
    if (Fd >= 0)
      ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// A client that vanishes mid-stream must not take the server (or any
/// other connection) with it, and a half-closed connection must still
/// receive every response in full — including one for a trailing
/// unterminated line — before its fd closes.
TEST(Serve, UnixSocketSurvivesAbruptDisconnectMidStream) {
  std::string Path =
      "/tmp/pigeon_serve_test_" + std::to_string(::getpid()) + ".sock";
  Service S(loadBundle());
  std::atomic<bool> Stop{false};
  std::thread Server([&] { EXPECT_EQ(serveSocket(S, Path, Stop), 0); });

  // Connection 1: submit a request, then slam the connection shut
  // without ever reading the response.
  int C1 = connectUnixRetry(Path);
  ASSERT_GE(C1, 0);
  std::string L1 = requestLine(MinifiedFlag, ",\"id\":\"gone\"") + "\n";
  ASSERT_EQ(::write(C1, L1.data(), L1.size()),
            static_cast<ssize_t>(L1.size()));
  ::close(C1);

  // Connection 2: half-close after an unterminated line. The mux must
  // treat the trailing bytes as a request and deliver the whole frame
  // before reaping the connection.
  int C2 = connectUnixRetry(Path);
  ASSERT_GE(C2, 0);
  std::string L2 = requestLine(MinifiedLoop, ",\"id\":\"whole\"");
  ASSERT_EQ(::write(C2, L2.data(), L2.size()),
            static_cast<ssize_t>(L2.size()));
  ::shutdown(C2, SHUT_WR);
  std::string Frame = readFrame(C2);
  ::close(C2);
  ASSERT_NE(Frame.find('\n'), std::string::npos) << "torn frame: " << Frame;
  json::Value Doc = parsed(Frame.substr(0, Frame.find('\n')));
  EXPECT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("id")->strOr(""), "whole");

  Stop.store(true);
  Server.join();
}

/// Same guarantees over TCP: ephemeral-port bind is discoverable via
/// the BoundPort out-param, an abrupt disconnect is isolated, and a
/// slow reader behind a tiny receive buffer still gets the complete
/// frame (writeAll polls through the backpressure instead of dropping
/// the remainder).
TEST(Serve, TcpDeliversWholeFramesToSlowReaders) {
  Service S(loadBundle());
  std::atomic<bool> Stop{false};
  std::atomic<int> Port{0};
  std::thread Server(
      [&] { EXPECT_EQ(serveTcp(S, "127.0.0.1:0", Stop, &Port), 0); });
  for (int I = 0; I < 500 && Port.load(std::memory_order_acquire) == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(Port.load(), 0);

  auto ConnectTcp = [&](bool TinyRcvBuf) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (TinyRcvBuf) {
      int Small = 1; // Kernel clamps to its minimum; still forces
                     // multiple write rounds for a multi-KB frame.
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
    }
    struct sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port.load()));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) != 0) {
      ::close(Fd);
      return -1;
    }
    return Fd;
  };

  // Abrupt mid-stream disconnect first; the server must shrug it off.
  int C1 = ConnectTcp(false);
  ASSERT_GE(C1, 0);
  std::string L1 = requestLine(MinifiedFlag, ",\"id\":\"gone\"") + "\n";
  ASSERT_EQ(::write(C1, L1.data(), L1.size()),
            static_cast<ssize_t>(L1.size()));
  ::close(C1);

  // Slow reader: ask for an explained response (a larger frame), then
  // drain it in small sips with pauses so the server's writes back up.
  int C2 = ConnectTcp(true);
  ASSERT_GE(C2, 0);
  std::string L2 =
      requestLine(MinifiedFlag, ",\"id\":\"slow\",\"explain\":true") + "\n";
  ASSERT_EQ(::write(C2, L2.data(), L2.size()),
            static_cast<ssize_t>(L2.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::string Frame;
  char Buf[64];
  while (Frame.find('\n') == std::string::npos) {
    ssize_t N = ::read(C2, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Frame.append(Buf, static_cast<size_t>(N));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(C2);
  ASSERT_NE(Frame.find('\n'), std::string::npos) << "torn frame";
  json::Value Doc = parsed(Frame.substr(0, Frame.find('\n')));
  EXPECT_TRUE(Doc.find("ok")->boolean());
  EXPECT_EQ(Doc.find("id")->strOr(""), "slow");

  Stop.store(true);
  Server.join();
}

} // namespace

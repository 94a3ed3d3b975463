//===- parallel_test.cpp - Thread pool and determinism tests ----------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the chunked thread pool, plus the PR's central contract:
/// every sharded pipeline stage (parse, extraction, CRF experiments)
/// produces bit-identical results at any thread count.
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "core/ContextsIO.h"
#include "core/Experiments.h"
#include "core/MappedBundle.h"
#include "core/ModelIO.h"
#include "datagen/Sketch.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace pigeon;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

//===----------------------------------------------------------------------===//
// Pool unit tests
//===----------------------------------------------------------------------===//

TEST(ParallelPool, EmptyRangeRunsNothing) {
  std::atomic<int> Calls{0};
  parallel::parallelChunks(0, 4, [&](size_t, size_t, size_t) { ++Calls; });
  parallel::parallelFor(0, 4, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ParallelPool, CoversEveryIndexExactlyOnce) {
  constexpr size_t N = 257; // Deliberately not a multiple of the threads.
  std::vector<std::atomic<int>> Hits(N);
  parallel::parallelFor(N, 4, [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelPool, ChunksAreContiguousAndOrderedByIndex) {
  constexpr size_t N = 10;
  size_t Threads = 4;
  std::mutex M;
  std::vector<std::tuple<size_t, size_t, size_t>> Seen;
  parallel::parallelChunks(N, Threads,
                           [&](size_t Chunk, size_t Begin, size_t End) {
                             std::lock_guard<std::mutex> Lock(M);
                             Seen.emplace_back(Chunk, Begin, End);
                           });
  ASSERT_EQ(Seen.size(), parallel::chunkCountFor(N, Threads));
  std::sort(Seen.begin(), Seen.end());
  size_t Expected = 0;
  for (const auto &[Chunk, Begin, End] : Seen) {
    EXPECT_EQ(Begin, Expected);
    EXPECT_LT(Begin, End);
    Expected = End;
  }
  EXPECT_EQ(Expected, N);
}

TEST(ParallelPool, ChunkCountOversubscribesForStealing) {
  // Multi-threaded runs oversubscribe (Threads * ChunkOversubscription
  // chunks) so fast workers steal the tail instead of idling, clamped to
  // one chunk per item when the range is small.
  EXPECT_EQ(parallel::chunkCountFor(3, 8), 3u);
  EXPECT_EQ(parallel::chunkCountFor(8, 3),
            std::min<size_t>(8, 3 * parallel::ChunkOversubscription));
  EXPECT_EQ(parallel::chunkCountFor(1000, 4),
            4 * parallel::ChunkOversubscription);
  EXPECT_EQ(parallel::chunkCountFor(0, 3), 0u);
  // Serial runs get exactly one chunk: no slicing overhead, and the
  // chunk boundaries trivially match the whole range.
  EXPECT_EQ(parallel::chunkCountFor(100, 1), 1u);
}

TEST(ParallelPool, PlanChunksCoversRangeContiguously) {
  for (size_t N : {0u, 1u, 7u, 257u}) {
    for (size_t Threads : {1u, 3u, 4u}) {
      parallel::ChunkPlan Plan = parallel::planChunks(N, Threads);
      SCOPED_TRACE("N=" + std::to_string(N) +
                   " threads=" + std::to_string(Threads));
      ASSERT_EQ(Plan.count(), parallel::chunkCountFor(N, Threads));
      ASSERT_EQ(Plan.items(), N);
      size_t Prev = 0;
      for (size_t C = 0; C < Plan.count(); ++C) {
        EXPECT_EQ(Plan.begin(C), Prev);
        EXPECT_LE(Plan.begin(C), Plan.end(C));
        Prev = Plan.end(C);
      }
      EXPECT_EQ(Prev, N);
    }
  }
}

TEST(ParallelPool, PlanChunksIsolatesGiantItems) {
  // One item dominating the cost vector must not drag its whole
  // even-split neighborhood into a straggler chunk: the plan cuts around
  // it so everything else remains available for stealing.
  std::vector<uint64_t> Costs(64, 1);
  Costs[10] = 10000;
  parallel::ChunkPlan Plan =
      parallel::planChunks(Costs.size(), /*Threads=*/4, Costs);
  size_t GiantChunk = Plan.count();
  for (size_t C = 0; C < Plan.count(); ++C)
    if (Plan.begin(C) <= 10 && 10 < Plan.end(C))
      GiantChunk = C;
  ASSERT_LT(GiantChunk, Plan.count());
  // The giant sits alone; the remaining 63 unit-cost items spread over
  // the other chunks instead of being fused onto the giant's chunk.
  EXPECT_EQ(Plan.end(GiantChunk) - Plan.begin(GiantChunk), 1u);
  size_t NonEmpty = 0;
  for (size_t C = 0; C < Plan.count(); ++C)
    NonEmpty += Plan.begin(C) < Plan.end(C);
  EXPECT_GT(NonEmpty, Plan.count() / 2);
}

TEST(ParallelPool, PlanChunksWithoutCostsFallsBackToEvenSplit) {
  parallel::ChunkPlan Plan = parallel::planChunks(100, /*Threads=*/2);
  ASSERT_EQ(Plan.count(), parallel::chunkCountFor(100, 2));
  size_t Largest = 0, Smallest = 100;
  for (size_t C = 0; C < Plan.count(); ++C) {
    Largest = std::max(Largest, Plan.end(C) - Plan.begin(C));
    Smallest = std::min(Smallest, Plan.end(C) - Plan.begin(C));
  }
  EXPECT_LE(Largest - Smallest, 1u); // Even to within rounding.
}

TEST(ParallelPool, PlanBasedChunksSkipEmptyAndCoverAll) {
  // A cheap prefix fused into one chunk plus a giant leaves later chunks
  // empty; the runner must skip them and still visit every index once.
  std::vector<uint64_t> Costs = {1, 1, 1, 1, 100};
  parallel::ChunkPlan Plan = parallel::planChunks(Costs.size(), 2, Costs);
  ASSERT_EQ(Plan.count(), 5u);
  EXPECT_EQ(Plan.begin(4), Plan.end(4)); // Trailing chunk came out empty.
  std::vector<std::atomic<int>> Hits(Costs.size());
  parallel::parallelChunks(Plan, 4, [&](size_t, size_t Begin, size_t End) {
    ASSERT_LT(Begin, End); // Empty chunks never reach the body.
    for (size_t I = Begin; I < End; ++I)
      ++Hits[I];
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelPool, AvailableConcurrencyIsPositive) {
  EXPECT_GE(parallel::availableConcurrency(), 1u);
}

TEST(ParallelPool, MapPreservesElementOrder) {
  auto Out = parallel::parallelMap(50, 4, [](size_t I) { return I * I; });
  ASSERT_EQ(Out.size(), 50u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
}

TEST(ParallelPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel::parallelFor(64, 4,
                                     [&](size_t I) {
                                       if (I == 17)
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The pool must still be usable after a failed region.
  std::atomic<size_t> Sum{0};
  parallel::parallelFor(10, 4, [&](size_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 45u);
}

TEST(ParallelPool, NestedRegionsRunInline) {
  std::atomic<int> Inner{0};
  std::atomic<bool> SawRegionFlag{false};
  parallel::parallelFor(4, 4, [&](size_t) {
    if (parallel::inParallelRegion())
      SawRegionFlag = true;
    // A nested region must complete inline rather than deadlock on the
    // pool the enclosing region already occupies.
    parallel::parallelFor(8, 4, [&](size_t) { ++Inner; });
  });
  EXPECT_EQ(Inner.load(), 32);
  EXPECT_TRUE(SawRegionFlag.load());
  EXPECT_FALSE(parallel::inParallelRegion());
}

TEST(ParallelPool, SingleThreadRunsInline) {
  std::thread::id Caller = std::this_thread::get_id();
  parallel::parallelFor(16, 1, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
}

TEST(ParallelPool, ResolveThreadsHonorsOverride) {
  parallel::setDefaultThreads(3);
  EXPECT_EQ(parallel::resolveThreads(0), 3u);
  EXPECT_EQ(parallel::resolveThreads(2), 2u); // Explicit request wins.
  parallel::setDefaultThreads(0);
  EXPECT_GE(parallel::resolveThreads(0), 1u);
}

TEST(StageTimer, CpuClockExcludesSiblingThreads) {
  // A sibling spins through the whole stage; the stage itself sleeps. A
  // process-wide clock would charge the spinner's CPU to the stage.
  std::atomic<bool> Started{false}, Stop{false};
  std::thread Spinner([&] {
    Started.store(true);
    volatile uint64_t Spins = 0;
    while (!Stop.load(std::memory_order_relaxed))
      Spins = Spins + 1;
  });
  while (!Started.load())
    std::this_thread::yield();
  parallel::StageHandles Stage("test.sibling_spin");
  {
    parallel::StageTimer Timer(Stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Stop.store(true);
  Spinner.join();
  // The handles are the registry's series under the stage's names.
  auto &Reg = telemetry::MetricsRegistry::global();
  telemetry::Histogram &Wall = Reg.histogram(
      "test.sibling_spin.wall.seconds", telemetry::timeBounds());
  telemetry::Histogram &Cpu = Reg.histogram("test.sibling_spin.cpu.seconds",
                                            telemetry::timeBounds());
  EXPECT_EQ(&Wall, &Stage.Wall);
  EXPECT_EQ(&Cpu, &Stage.Cpu);
  ASSERT_EQ(Wall.count(), 1u);
  ASSERT_EQ(Cpu.count(), 1u);
  EXPECT_GE(Wall.sum(), 0.045);
  EXPECT_GE(Cpu.sum(), 0.0);
  EXPECT_LT(Cpu.sum(), 0.5 * Wall.sum());
}

//===----------------------------------------------------------------------===//
// Trace-context propagation into workers
//===----------------------------------------------------------------------===//

TEST(ParallelTrace, WorkerScopesNestUnderSpawningStage) {
  telemetry::MetricsRegistry Reg;
  {
    telemetry::TraceScope Stage(Reg, "stage");
    parallel::parallelFor(32, 4, [&](size_t) {
      // Runs on pool workers and the participating caller alike; all of
      // them must see the spawner's "stage" as their current phase.
      telemetry::TraceScope Item(Reg, "item");
    });
  }
  const telemetry::TraceNode &Root = Reg.traceRoot();
  ASSERT_EQ(Root.Children.size(), 1u);
  EXPECT_EQ(Root.Children[0]->Name, "stage");
  ASSERT_EQ(Root.Children[0]->Children.size(), 1u); // merged by name
  const telemetry::TraceNode &Item = *Root.Children[0]->Children[0];
  EXPECT_EQ(Item.Name, "item");
  EXPECT_EQ(Item.Calls, 32u);
}

TEST(ParallelTrace, CallerContextRestoredAfterParticipation) {
  telemetry::MetricsRegistry Reg;
  {
    telemetry::TraceScope Stage(Reg, "stage");
    parallel::parallelFor(16, 4, [](size_t) {});
    // The caller participated in the region; its own phase must be
    // restored so later scopes still nest under "stage".
    telemetry::TraceScope After(Reg, "after");
  }
  const telemetry::TraceNode &Root = Reg.traceRoot();
  ASSERT_EQ(Root.Children.size(), 1u);
  ASSERT_EQ(Root.Children[0]->Children.size(), 1u);
  EXPECT_EQ(Root.Children[0]->Children[0]->Name, "after");
}

namespace {

/// "name(calls)[child child ...]" — the thread-count-invariant part of a
/// trace tree (Seconds differ run to run and are excluded).
std::string traceShape(const telemetry::TraceNode &Node) {
  std::string Out =
      Node.Name + "(" + std::to_string(Node.Calls) + ")[";
  for (size_t I = 0; I < Node.Children.size(); ++I) {
    if (I)
      Out += " ";
    Out += traceShape(*Node.Children[I]);
  }
  return Out + "]";
}

} // namespace

TEST(ParallelTrace, TraceTreeShapeIsThreadCountInvariant) {
  auto ShapeAt = [](size_t Threads) {
    telemetry::MetricsRegistry Reg;
    {
      telemetry::TraceScope Stage(Reg, "stage");
      parallel::parallelChunks(
          8, Threads, [&](size_t, size_t Begin, size_t End) {
            for (size_t I = Begin; I < End; ++I) {
              telemetry::TraceScope Work(Reg, "work");
              telemetry::TraceScope Inner(Reg, "inner");
            }
          });
    }
    return traceShape(Reg.traceRoot());
  };
  // Chunk spans exist only in the event stream, never as trace-tree
  // nodes — chunk count varies with the thread count, and the tree must
  // not (the PR-2 determinism contract extends to telemetry).
  std::string Serial = ShapeAt(1);
  EXPECT_EQ(Serial, "total(0)[stage(1)[work(8)[inner(8)[]]]]");
  EXPECT_EQ(Serial, ShapeAt(2));
  EXPECT_EQ(Serial, ShapeAt(4));
}

//===----------------------------------------------------------------------===//
// Determinism across thread counts
//===----------------------------------------------------------------------===//

std::vector<datagen::SourceFile> testSources(Language Lang) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, /*Seed=*/7);
  Spec.NumProjects = 12;
  return datagen::generateCorpus(Spec);
}

void expectSameInterner(const StringInterner &A, const StringInterner &B) {
  ASSERT_EQ(A.size(), B.size());
  for (uint32_t I = 1; I < A.size(); ++I)
    ASSERT_EQ(A.str(Symbol::fromIndex(I)), B.str(Symbol::fromIndex(I)))
        << "symbol " << I;
}

void expectSameCorpus(const Corpus &A, const Corpus &B) {
  ASSERT_EQ(A.Files.size(), B.Files.size());
  EXPECT_EQ(A.SourceBytes, B.SourceBytes);
  EXPECT_EQ(A.ParseFailures, B.ParseFailures);
  expectSameInterner(*A.Interner, *B.Interner);
  for (size_t F = 0; F < A.Files.size(); ++F) {
    const ast::Tree &TA = A.Files[F].Tree;
    const ast::Tree &TB = B.Files[F].Tree;
    ASSERT_EQ(A.Files[F].FileName, B.Files[F].FileName);
    ASSERT_EQ(TA.size(), TB.size()) << A.Files[F].FileName;
    for (ast::NodeId N = 0; N < TA.size(); ++N) {
      // Symbol *ids*, not just strings: the merge must reproduce the
      // serial interner layout exactly.
      ASSERT_EQ(TA.node(N).Kind.index(), TB.node(N).Kind.index())
          << A.Files[F].FileName << " node " << N;
      ASSERT_EQ(TA.node(N).Value.index(), TB.node(N).Value.index())
          << A.Files[F].FileName << " node " << N;
    }
    ASSERT_EQ(TA.elements().size(), TB.elements().size());
    for (size_t E = 0; E < TA.elements().size(); ++E)
      ASSERT_EQ(TA.elements()[E].Name.index(), TB.elements()[E].Name.index());
    for (ast::NodeId N : TA.typedNodes())
      ASSERT_EQ(TA.typeOf(N).index(), TB.typeOf(N).index());
  }
}

TEST(ParallelDeterminism, ParseCorpusIsThreadCountInvariant) {
  for (Language Lang : {Language::JavaScript, Language::Java}) {
    auto Sources = testSources(Lang);
    Corpus Serial = parseCorpus(Sources, Lang, /*Threads=*/1);
    for (size_t Threads : {2u, 4u, 7u}) {
      Corpus Sharded = parseCorpus(Sources, Lang, Threads);
      SCOPED_TRACE("threads=" + std::to_string(Threads));
      expectSameCorpus(Serial, Sharded);
    }
  }
}

TEST(ParallelDeterminism, ExtractionIsThreadCountInvariant) {
  auto Sources = testSources(Language::JavaScript);
  Corpus C = parseCorpus(Sources, Language::JavaScript, 1);
  std::vector<size_t> Indices(C.Files.size());
  std::iota(Indices.begin(), Indices.end(), size_t(0));

  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.TriContexts = true;

  Options.Threads = 1;
  paths::PathTable SerialTable;
  auto Serial = extractCorpusContexts(C, Indices, Options, SerialTable);

  for (size_t Threads : {2u, 4u}) {
    Options.Threads = Threads;
    paths::PathTable Table;
    auto Sharded = extractCorpusContexts(C, Indices, Options, Table);
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    ASSERT_EQ(SerialTable.size(), Table.size());
    for (paths::PathId Id = 1; Id <= Table.size(); ++Id) {
      // Byte-identical packed paths at every id: the merged table must
      // replay the serial first-encounter order exactly.
      auto SerialBytes = SerialTable.bytes(Id);
      auto ShardedBytes = Table.bytes(Id);
      ASSERT_TRUE(std::equal(SerialBytes.begin(), SerialBytes.end(),
                             ShardedBytes.begin(), ShardedBytes.end()))
          << "path " << Id << ": " << SerialTable.render(Id, *C.Interner)
          << " vs " << Table.render(Id, *C.Interner);
    }
    ASSERT_EQ(Serial.size(), Sharded.size());
    for (size_t F = 0; F < Serial.size(); ++F) {
      ASSERT_EQ(Serial[F].Contexts.size(), Sharded[F].Contexts.size());
      for (size_t I = 0; I < Serial[F].Contexts.size(); ++I) {
        EXPECT_EQ(Serial[F].Contexts[I].Start, Sharded[F].Contexts[I].Start);
        EXPECT_EQ(Serial[F].Contexts[I].End, Sharded[F].Contexts[I].End);
        ASSERT_EQ(Serial[F].Contexts[I].Path, Sharded[F].Contexts[I].Path)
            << "file " << F << " context " << I;
        EXPECT_EQ(Serial[F].Contexts[I].Semi, Sharded[F].Contexts[I].Semi);
      }
      ASSERT_EQ(Serial[F].Tris.size(), Sharded[F].Tris.size());
      for (size_t I = 0; I < Serial[F].Tris.size(); ++I)
        ASSERT_EQ(Serial[F].Tris[I].Path, Sharded[F].Tris[I].Path);
    }
  }
}

TEST(ParallelDeterminism, CrfNameExperimentIsThreadCountInvariant) {
  auto Sources = testSources(Language::JavaScript);
  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.Crf.Epochs = 2;
  Options.TriContexts = true;
  Options.DownsampleP = 0.8; // Exercise the shared-Rng downsampler too.

  Options.Threads = 1;
  Corpus Serial = parseCorpus(Sources, Language::JavaScript, 1);
  ExperimentResult Base =
      runCrfNameExperiment(Serial, Task::VariableNames, Options);

  size_t Hardware = parallel::hardwareConcurrency();
  for (size_t Threads : {size_t(2), Hardware}) {
    Options.Threads = Threads;
    Corpus Sharded = parseCorpus(Sources, Language::JavaScript, Threads);
    ExperimentResult R =
        runCrfNameExperiment(Sharded, Task::VariableNames, Options);
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    EXPECT_EQ(Base.Accuracy, R.Accuracy);
    EXPECT_EQ(Base.SubtokenF1, R.SubtokenF1);
    EXPECT_EQ(Base.Predictions, R.Predictions);
    EXPECT_EQ(Base.NumFeatures, R.NumFeatures);
    EXPECT_EQ(Base.TrainContexts, R.TrainContexts);
    EXPECT_EQ(Base.DistinctPaths, R.DistinctPaths);
  }
}

TEST(ParallelDeterminism, SkewedCorpusIsThreadCountInvariant) {
  // One file ~50x the cost of its neighbors: the cost-balanced plan must
  // isolate it without perturbing the merged result, and the skew must
  // not degrade the run into a serial straggler chunk that changes the
  // commit order.
  auto Sources = testSources(Language::JavaScript);
  std::string Giant = Sources[3].Text;
  for (int I = 0; I < 50; ++I)
    Sources[3].Text += Giant; // Concatenated programs stay parseable.
  Corpus Serial = parseCorpus(Sources, Language::JavaScript, 1);
  for (size_t Threads : {2u, 4u}) {
    Corpus Sharded = parseCorpus(Sources, Language::JavaScript, Threads);
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    expectSameCorpus(Serial, Sharded);
  }
}

//===----------------------------------------------------------------------===//
// Shared interner: concurrency safety and delta commits
//===----------------------------------------------------------------------===//

TEST(SharedInterner, ConcurrentInternAndReadIsSafe) {
  // Writers intern overlapping string sets straight into one shared
  // interner while readers chase size() and resolve every published
  // symbol. Safety (no torn reads, no lost strings) is the contract
  // here — under TSan this is the proof the read path is lock-free
  // *and* race-free; id assignment order is allowed to vary.
  StringInterner SI;
  constexpr size_t Distinct = 1500;
  constexpr size_t Ops = 6000;
  auto Name = [](size_t I) { return "sym_" + std::to_string(I % Distinct); };

  constexpr size_t Writers = 4;
  std::vector<std::vector<Symbol>> Ids(Writers,
                                       std::vector<Symbol>(Distinct));
  std::atomic<bool> StopReaders{false};
  std::atomic<size_t> ReaderChecks{0};
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      for (size_t I = 0; I < Ops; ++I) {
        // Offset start per writer so threads collide on *different*
        // strings at any given moment.
        size_t K = (I + W * (Ops / Writers)) % Distinct;
        Ids[W][K] = SI.intern(Name(K));
      }
    });
  for (size_t R = 0; R < 2; ++R)
    Threads.emplace_back([&] {
      auto Scan = [&] {
        size_t N = SI.size();
        for (uint32_t I = 1; I < N; ++I)
          if (!SI.str(Symbol::fromIndex(I)).empty())
            ReaderChecks.fetch_add(1, std::memory_order_relaxed);
      };
      while (!StopReaders.load(std::memory_order_acquire))
        Scan();
      // One full pass after the writers quiesce, so the reader exercises
      // (and counts) the whole table even if it was never scheduled
      // while the writers ran — on a one-core box they may finish first.
      Scan();
    });
  for (size_t W = 0; W < Writers; ++W)
    Threads[W].join();
  StopReaders.store(true, std::memory_order_release);
  for (size_t T = Writers; T < Threads.size(); ++T)
    Threads[T].join();

  // Exactly the distinct strings (plus the reserved empty string at 0).
  ASSERT_EQ(SI.size(), Distinct + 1);
  for (size_t K = 0; K < Distinct; ++K) {
    Symbol S = Ids[0][K];
    ASSERT_TRUE(S.isValid());
    EXPECT_EQ(SI.str(S), Name(K));
    EXPECT_EQ(SI.lookup(Name(K)), S);
    // Every writer resolved the same string to the same id.
    for (size_t W = 1; W < Writers; ++W)
      ASSERT_EQ(Ids[W][K], S) << "writer " << W << " string " << K;
  }
  EXPECT_GT(ReaderChecks.load(), 0u);
}

TEST(SharedInterner, DeltaCommitReplaysSerialFirstEncounterOrder) {
  // Four "chunks" of strings with cross-chunk duplicates. The sharded
  // protocol — chunk 0 warm into the base, chunks 1..3 into overlays
  // (concurrently), ordered commits, provisional remap — must reproduce
  // the serial interner ids exactly.
  std::vector<std::vector<std::string>> Chunks(4);
  for (size_t C = 0; C < 4; ++C)
    for (size_t I = 0; I < 64; ++I) {
      Chunks[C].push_back("shared_" + std::to_string(I % 7));
      Chunks[C].push_back("c" + std::to_string(C) + "_" +
                          std::to_string(I));
      if (C > 0) // Hits against a *previous* chunk's private strings.
        Chunks[C].push_back("c" + std::to_string(C - 1) + "_" +
                            std::to_string(I / 2));
    }

  StringInterner Serial;
  for (const auto &Chunk : Chunks)
    for (const std::string &S : Chunk)
      Serial.intern(S);

  StringInterner Base;
  for (const std::string &S : Chunks[0])
    Base.intern(S);
  std::vector<std::unique_ptr<StringInterner>> Overlays(4);
  std::vector<std::vector<Symbol>> Raw(4);
  {
    std::vector<std::thread> Threads;
    for (size_t C = 1; C < 4; ++C)
      Threads.emplace_back([&, C] {
        Overlays[C] =
            std::make_unique<StringInterner>(StringInterner::Delta, Base);
        for (const std::string &S : Chunks[C])
          Raw[C].push_back(Overlays[C]->intern(S));
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (size_t C = 1; C < 4; ++C) {
    std::vector<uint32_t> Map = Base.commitDelta(*Overlays[C]);
    for (Symbol &S : Raw[C])
      if (S.index() & StringInterner::ProvisionalBit)
        S = Symbol::fromIndex(
            Map[S.index() & ~StringInterner::ProvisionalBit]);
  }

  expectSameInterner(Serial, Base);
  for (size_t C = 1; C < 4; ++C)
    for (size_t I = 0; I < Chunks[C].size(); ++I)
      ASSERT_EQ(Raw[C][I], Serial.lookup(Chunks[C][I]))
          << "chunk " << C << " string " << Chunks[C][I];
}

//===----------------------------------------------------------------------===//
// Byte identity on disk: artifacts and models
//===----------------------------------------------------------------------===//

std::string contextsBytesAt(size_t Threads) {
  auto Sources = testSources(Language::JavaScript);
  Corpus C = parseCorpus(Sources, Language::JavaScript, Threads);
  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.TriContexts = true;
  Options.Threads = Threads;
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, Options);
  std::ostringstream OS;
  saveContexts(OS, Art);
  return std::move(OS).str();
}

TEST(ParallelDeterminism, ContextsArtifactBytesAreThreadCountInvariant) {
  // The strongest form of the contract: the *serialized* artifact —
  // interner layout, packed path table, every context record — is
  // byte-for-byte identical at any thread count.
  std::string Serial = contextsBytesAt(1);
  ASSERT_FALSE(Serial.empty());
  size_t Hardware = parallel::hardwareConcurrency();
  for (size_t Threads : {size_t(2), size_t(4), Hardware}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    EXPECT_TRUE(Serial == contextsBytesAt(Threads));
  }
}

std::string modelBytesAt(size_t Threads) {
  auto Sources = testSources(Language::JavaScript);
  Corpus C = parseCorpus(Sources, Language::JavaScript, Threads);
  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.TriContexts = true;
  Options.Threads = Threads;
  ContextsArtifact Art =
      buildContextsArtifact(C, Task::VariableNames, Options);

  ModelBundle Bundle;
  Bundle.Lang = Art.Lang;
  Bundle.TaskKind = Art.TaskKind;
  Bundle.Extraction = Art.Extraction;
  Bundle.Interner = std::move(Art.Interner);
  crf::CrfConfig Config;
  Config.Epochs = 2;
  Bundle.Model = crf::CrfModel(Config);
  std::vector<crf::CrfGraph> Graphs = assembleGraphs(Art, *Bundle.Interner);
  Bundle.Table = std::move(Art.Table);
  Bundle.Model.train(Graphs);
  std::ostringstream OS;
  saveModelV3(OS, Bundle);
  return std::move(OS).str();
}

TEST(ParallelDeterminism, TrainedModelBytesAreThreadCountInvariant) {
  // Parse → extract → assemble → train → save, end to end per thread
  // count: the saved bundle (interner + table + CRF weights) must not
  // leak any trace of how many workers produced it.
  std::string Serial = modelBytesAt(1);
  ASSERT_FALSE(Serial.empty());
  for (size_t Threads : {size_t(2), size_t(4)}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    EXPECT_TRUE(Serial == modelBytesAt(Threads));
  }
}

TEST(ParallelDeterminism, CrfTypeExperimentIsThreadCountInvariant) {
  auto Sources = testSources(Language::Java);
  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Language::Java, Task::FullTypes);
  Options.Crf.Epochs = 2;

  Options.Threads = 1;
  Corpus Serial = parseCorpus(Sources, Language::Java, 1);
  ExperimentResult Base = runCrfTypeExperiment(Serial, Options);

  Options.Threads = 3;
  Corpus Sharded = parseCorpus(Sources, Language::Java, 3);
  ExperimentResult R = runCrfTypeExperiment(Sharded, Options);
  EXPECT_EQ(Base.Accuracy, R.Accuracy);
  EXPECT_EQ(Base.Predictions, R.Predictions);
  EXPECT_EQ(Base.NumFeatures, R.NumFeatures);
  EXPECT_EQ(Base.TrainContexts, R.TrainContexts);
  EXPECT_EQ(Base.DistinctPaths, R.DistinctPaths);
}

} // namespace

//===- Parallel.cpp - Chunked thread pool for the pipeline ------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "support/EventLog.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#if defined(__linux__)
#include <sched.h>
#endif
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

using namespace pigeon;
using namespace pigeon::parallel;

namespace {

/// Hard cap on pool size: a PIGEON_THREADS typo must not fork-bomb.
constexpr size_t MaxThreads = 256;

std::atomic<size_t> DefaultOverride{0};

size_t envThreads() {
  static const size_t Cached = [] {
    const char *Env = std::getenv("PIGEON_THREADS");
    if (!Env || !*Env)
      return size_t(0);
    long N = std::atol(Env);
    return N > 0 ? static_cast<size_t>(N) : size_t(0);
  }();
  return Cached;
}

thread_local bool InRegion = false;

/// One parallel region: a chunk counter shared by every executor (pool
/// workers and the calling thread), a completion counter the caller waits
/// on, and the first exception any chunk threw.
struct Region {
  size_t Total = 0;
  const std::function<void(size_t)> *Fn = nullptr;
  /// Trace position of the spawning thread. Installed on every executor
  /// for the duration of participate(), so TraceScopes opened inside a
  /// chunk — and the chunk spans themselves — nest under the stage that
  /// started the region instead of floating at a worker's top level.
  telemetry::TraceContext Ctx;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
  std::mutex Mutex;
  std::condition_variable Finished;
  std::exception_ptr Error;

  bool exhausted() const {
    return Next.load(std::memory_order_relaxed) >= Total;
  }

  /// Pulls and runs chunks until none remain. Any executor may call this.
  void participate() {
    bool Saved = InRegion;
    InRegion = true;
    telemetry::TraceContext Prev = telemetry::setCurrentTraceContext(Ctx);
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Total)
        break;
      try {
        (*Fn)(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!Error)
          Error = std::current_exception();
      }
      if (Done.fetch_add(1, std::memory_order_acq_rel) + 1 == Total) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Finished.notify_all();
      }
    }
    telemetry::setCurrentTraceContext(Prev);
    InRegion = Saved;
  }

  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Finished.wait(Lock, [&] {
      return Done.load(std::memory_order_acquire) >= Total;
    });
  }
};

/// The process-wide pool. Workers are started lazily and grow on demand
/// up to the largest concurrency any region asked for (capped).
class Pool {
public:
  static Pool &instance() {
    static Pool P;
    return P;
  }

  void run(size_t Chunks, size_t Threads,
           const std::function<void(size_t)> &Fn) {
    auto R = std::make_shared<Region>();
    R->Total = Chunks;
    R->Fn = &Fn;
    R->Ctx = telemetry::currentTraceContext(); // run() is the spawner.
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      size_t Want = std::min(std::min(Threads, Chunks), MaxThreads);
      while (Workers.size() + 1 < Want)
        Workers.emplace_back([this] { workerLoop(); });
      Pending.push_back(R);
    }
    WorkAvailable.notify_all();
    R->participate();
    R->wait();
    {
      // Drop the region from the pending list if no worker got to it.
      std::lock_guard<std::mutex> Lock(Mutex);
      for (auto It = Pending.begin(); It != Pending.end(); ++It)
        if (It->get() == R.get()) {
          Pending.erase(It);
          break;
        }
    }
    if (R->Error)
      std::rethrow_exception(R->Error);
  }

private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stop = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  void workerLoop() {
    for (;;) {
      std::shared_ptr<Region> R;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(Lock, [&] { return Stop || !Pending.empty(); });
        if (Stop)
          return;
        R = Pending.front();
        if (R->exhausted()) {
          Pending.pop_front();
          continue;
        }
      }
      R->participate();
    }
  }

  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::deque<std::shared_ptr<Region>> Pending;
  std::vector<std::thread> Workers;
  bool Stop = false;
};

} // namespace

size_t parallel::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : static_cast<size_t>(N);
}

size_t parallel::availableConcurrency() {
#if defined(__linux__)
  cpu_set_t Mask;
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0) {
    int N = CPU_COUNT(&Mask);
    if (N > 0)
      return static_cast<size_t>(N);
  }
#endif
  return hardwareConcurrency();
}

size_t parallel::defaultThreads() {
  size_t Override = DefaultOverride.load(std::memory_order_relaxed);
  if (Override > 0)
    return std::min(Override, MaxThreads);
  size_t Env = envThreads();
  if (Env > 0)
    return std::min(Env, MaxThreads);
  return hardwareConcurrency();
}

void parallel::setDefaultThreads(size_t N) {
  DefaultOverride.store(std::min(N, MaxThreads), std::memory_order_relaxed);
}

size_t parallel::resolveThreads(size_t Requested) {
  size_t N = Requested > 0 ? std::min(Requested, MaxThreads)
                           : defaultThreads();
  if (N == 0)
    N = 1;
  static telemetry::Gauge &Threads =
      telemetry::MetricsRegistry::global().gauge("parallel.threads");
  Threads.set(static_cast<double>(N));
  return N;
}

bool parallel::inParallelRegion() { return InRegion; }

namespace {

/// RAII event-log span around one chunk execution. Chunk spans exist only
/// in the event stream, never in the merged trace tree: the number of
/// chunks depends on the thread count, and the trace tree must stay
/// thread-count invariant (the determinism contract). While open, the
/// chunk span is the thread's current span, so TraceScopes inside the
/// chunk body nest under it. A region of one chunk passes \p Emit false:
/// the stage around it already spans the same work.
class ChunkSpan {
public:
  ChunkSpan(bool Emit, size_t Chunk, size_t Begin, size_t End)
      : Log(telemetry::EventLog::global()) {
    if (!Emit || !Log.enabled())
      return;
    Prev = telemetry::currentTraceContext();
    Id = Log.nextSpanId();
    Log.spanBegin(Id, Prev.Span, "parallel.chunk",
                  {{"chunk", std::to_string(Chunk)},
                   {"begin", std::to_string(Begin)},
                   {"end", std::to_string(End)}});
    telemetry::setCurrentTraceContext({Prev.Phase, Id});
    CpuStart = telemetry::threadCpuSeconds();
    Start = std::chrono::steady_clock::now();
  }

  ~ChunkSpan() {
    if (Id == 0)
      return;
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    double Cpu =
        CpuStart >= 0 ? telemetry::threadCpuSeconds() - CpuStart : -1.0;
    Log.spanEnd(Id, Prev.Span, "parallel.chunk", Wall, Cpu);
    telemetry::setCurrentTraceContext(Prev);
  }

private:
  telemetry::EventLog &Log;
  telemetry::TraceContext Prev;
  uint64_t Id = 0;
  double CpuStart = -1;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

ChunkPlan parallel::planChunks(size_t N, size_t Threads,
                               std::span<const uint64_t> Costs) {
  ChunkPlan Plan;
  if (N == 0)
    return Plan;
  size_t T = resolveThreads(Threads);
  size_t Chunks = chunkCountFor(N, T);
  Plan.Bounds.resize(Chunks + 1);
  Plan.Bounds[0] = 0;
  Plan.Bounds[Chunks] = N;

  uint64_t Total = 0;
  if (Costs.size() == N)
    for (uint64_t C : Costs)
      Total += C;
  if (Total == 0) {
    // No (or degenerate) costs: split by item count.
    for (size_t C = 1; C < Chunks; ++C)
      Plan.Bounds[C] = C * N / Chunks;
    return Plan;
  }
  // Cost-balanced boundaries: each chunk aims for an equal share of the
  // cost still unassigned (Remaining / ChunksLeft, compared exactly via
  // cross-multiplication — no division, no rounding drift). Re-deriving
  // the share from what *remains* is what keeps an outsized item from
  // wrecking the rest of the plan: once it is consumed, later shares are
  // computed from the small remainder, so the tail still spreads evenly
  // across the leftover chunks instead of piling into the last one.
  size_t Item = 0;
  uint64_t Remaining = Total;
  for (size_t C = 0; C + 1 < Chunks; ++C) {
    uint64_t ChunksLeft = Chunks - C;
    uint64_t Load = 0;
    size_t First = Item;
    auto FitsShare = [&](uint64_t L) {
      return static_cast<unsigned __int128>(L) * ChunksLeft <= Remaining;
    };
    while (Item < N && FitsShare(Load + Costs[Item]))
      Load += Costs[Item++];
    if (Item < N) {
      uint64_t WithNext = Load + Costs[Item];
      // The next item straddles the share. Take it when that lands the
      // chunk closer to its share than stopping short — or when the
      // chunk would otherwise be empty, which isolates a single item
      // too big for any share in a chunk of its own.
      bool Closer =
          static_cast<unsigned __int128>(Load + WithNext) * ChunksLeft <
          static_cast<unsigned __int128>(2) * Remaining;
      if (Item == First || Closer) {
        Load = WithNext;
        ++Item;
      }
    }
    Remaining -= Load;
    Plan.Bounds[C + 1] = Item;
  }
  return Plan;
}

void parallel::parallelChunks(
    const ChunkPlan &Plan, size_t Threads,
    const std::function<void(size_t, size_t, size_t)> &Fn,
    size_t FirstChunk) {
  size_t Chunks = Plan.count();
  if (FirstChunk >= Chunks)
    return;
  size_t T = resolveThreads(Threads);
  size_t Pending = Chunks - FirstChunk;
  auto RunChunk = [&](size_t I) {
    size_t C = FirstChunk + I;
    size_t Begin = Plan.begin(C);
    size_t End = Plan.end(C);
    if (Begin == End)
      return; // Cost-balanced plans may produce empty chunks.
    ChunkSpan Span(Pending > 1, C, Begin, End);
    Fn(C, Begin, End);
  };
  if (Pending <= 1 || T <= 1 || InRegion) {
    // Serial / nested: same chunk structure, caller's thread, in order.
    for (size_t I = 0; I < Pending; ++I)
      RunChunk(I);
    return;
  }
  static telemetry::Counter &Regions =
      telemetry::MetricsRegistry::global().counter("parallel.regions");
  Regions.inc();
  Pool::instance().run(Pending, T, RunChunk);
}

void parallel::parallelChunks(
    size_t N, size_t Threads,
    const std::function<void(size_t, size_t, size_t)> &Fn) {
  if (N == 0)
    return;
  parallelChunks(planChunks(N, Threads), Threads, Fn);
}

void parallel::parallelFor(size_t N, size_t Threads,
                           const std::function<void(size_t)> &Fn) {
  parallelChunks(N, Threads, [&](size_t, size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Fn(I);
  });
}

//===- Parallel.h - Chunked thread pool for the pipeline --------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel execution layer behind the sharded pipeline stages
/// (parse → extract → infer). A small process-wide thread pool executes
/// *chunked* loops: the iteration space [0, N) is cut into contiguous
/// chunks, and workers (plus the calling thread) self-schedule chunks
/// from a shared counter. Chunks are deliberately *oversubscribed* —
/// several per worker — so a thread that drew cheap chunks steals the
/// remaining ones instead of idling behind a straggler, and planChunks()
/// can additionally balance chunk boundaries by per-item cost (file
/// bytes, tree sizes). Contiguous chunks are what make the deterministic
/// shard merges possible — each shard worker sees its items in global
/// order, so shard-local overlays can be committed back into the exact
/// serial interning order (see DESIGN.md §Parallelism).
///
/// Thread-count resolution, in priority order:
///   1. an explicit per-call `Threads` argument (> 0),
///   2. setDefaultThreads() — the CLI's `--threads` flag,
///   3. the PIGEON_THREADS environment variable,
///   4. std::thread::hardware_concurrency().
///
/// Guarantees:
///   * a resolved count of 1 runs inline on the caller, no pool involved;
///   * nested parallel regions run inline (no deadlock, no oversubscribe);
///   * the first exception thrown by any chunk is rethrown on the caller;
///   * determinism is the *callers'* contract: this layer only promises
///     stable chunk boundaries for a given (N, threads) pair;
///   * workers inherit the spawning thread's telemetry::TraceContext, so
///     TraceScopes opened inside chunks nest under the spawning stage in
///     the merged trace tree (thread-count invariant), and when the event
///     log is open each chunk emits a `parallel.chunk` span nested under
///     that stage (event stream only — chunk count varies with threads).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_PARALLEL_H
#define PIGEON_SUPPORT_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace pigeon {
namespace telemetry {
class Histogram;
} // namespace telemetry

namespace parallel {

/// Number of hardware threads (at least 1).
size_t hardwareConcurrency();

/// Number of cores actually available to this process (CPU affinity
/// mask on Linux, hardwareConcurrency() elsewhere; at least 1). The
/// bench speedup gates key on this: a 4-thread run on a 1-core box
/// cannot speed anything up, and must not be graded as if it could.
size_t availableConcurrency();

/// The process default worker count: the setDefaultThreads() override if
/// set, else PIGEON_THREADS (parsed once), else hardwareConcurrency().
size_t defaultThreads();

/// Sets the process default (the CLI's `--threads`). 0 restores the
/// automatic PIGEON_THREADS/hardware resolution.
void setDefaultThreads(size_t N);

/// Resolves a per-call request: 0 means defaultThreads(); the result is
/// clamped to at least 1. Also publishes the `parallel.threads` gauge.
size_t resolveThreads(size_t Requested);

/// Chunks per worker thread. Oversubscribing the chunk count is the
/// work-stealing mechanism: chunks are claimed dynamically from a shared
/// counter, so a skewed chunk only delays its own thread by one chunk's
/// worth of work instead of serializing the whole region behind it.
inline constexpr size_t ChunkOversubscription = 8;

/// Number of chunks a parallel loop over \p N items uses at \p Threads
/// resolved threads: min(N, Threads × ChunkOversubscription), except
/// that a single thread always gets a single chunk. Callers that keep
/// per-chunk state (shard interner overlays, shard path tables) size
/// their arrays with this.
inline size_t chunkCountFor(size_t N, size_t Threads) {
  size_t Chunks = Threads <= 1 ? 1 : Threads * ChunkOversubscription;
  return N < Chunks ? N : Chunks;
}

/// Contiguous chunk boundaries for one parallel loop: chunk C is
/// [begin(C), end(C)), chunks cover [0, N) in index order. Boundaries are
/// a pure function of (N, resolved threads, costs) — never of timing —
/// which is what lets sharded stages commit per-chunk results in chunk
/// index order and reproduce the serial output bit for bit.
struct ChunkPlan {
  /// count() + 1 monotone offsets into [0, N].
  std::vector<size_t> Bounds;

  size_t count() const { return Bounds.empty() ? 0 : Bounds.size() - 1; }
  size_t items() const { return Bounds.empty() ? 0 : Bounds.back(); }
  size_t begin(size_t Chunk) const { return Bounds[Chunk]; }
  size_t end(size_t Chunk) const { return Bounds[Chunk + 1]; }
};

/// Plans chunkCountFor(N, resolveThreads(Threads)) contiguous chunks over
/// [0, N). With \p Costs (one weight per item, e.g. source bytes or tree
/// nodes) boundaries equalize total cost per chunk, so one pathological
/// item ends up isolated in its own chunk instead of dragging a whole
/// fixed-size chunk; without costs the split is by item count. Chunks may
/// be empty when a single item outweighs a whole chunk budget.
ChunkPlan planChunks(size_t N, size_t Threads,
                     std::span<const uint64_t> Costs = {});

/// True while the current thread is executing a chunk of some parallel
/// region (worker or participating caller). Nested regions run inline.
bool inParallelRegion();

/// Runs \p Fn(Chunk, Begin, End) for every chunk of [0, N) cut into
/// chunkCountFor(N, resolveThreads(Threads)) contiguous pieces. Chunk
/// boundaries are a function of (N, resolved threads) only. Blocks until
/// every chunk finished; rethrows the first chunk exception. With one
/// chunk — or when called from inside another parallel region — the
/// chunks run inline on the caller, in index order.
void parallelChunks(size_t N, size_t Threads,
                    const std::function<void(size_t Chunk, size_t Begin,
                                             size_t End)> &Fn);

/// Runs \p Fn(Chunk, Begin, End) for the chunks [FirstChunk, count()) of
/// a pre-computed \p Plan. \p FirstChunk lets pipeline stages run chunk 0
/// serially first (warming a shared interner the remaining chunks then
/// read lock-free) without perturbing the chunk numbering. Blocks until
/// every chunk finished; rethrows the first chunk exception.
void parallelChunks(const ChunkPlan &Plan, size_t Threads,
                    const std::function<void(size_t Chunk, size_t Begin,
                                             size_t End)> &Fn,
                    size_t FirstChunk = 0);

/// Element-wise loop on top of parallelChunks: Fn(I) for I in [0, N).
void parallelFor(size_t N, size_t Threads,
                 const std::function<void(size_t)> &Fn);

/// Maps [0, N) through \p Fn into a vector, element I at index I.
template <typename Fn>
auto parallelMap(size_t N, size_t Threads, Fn &&F)
    -> std::vector<decltype(F(size_t(0)))> {
  std::vector<decltype(F(size_t(0)))> Out(N);
  parallelFor(N, Threads, [&](size_t I) { Out[I] = F(I); });
  return Out;
}

/// The two series a StageTimer feeds — `<stage>.wall.seconds` and
/// `<stage>.cpu.seconds` in the global registry — resolved once, so a
/// timed stage builds no name and takes no registry lock. Keep one per
/// stage for as long as it is timed (a member, or a function-local
/// static).
struct StageHandles {
  explicit StageHandles(std::string Stage);

  std::string Name; ///< Also the phase-profiler frame.
  telemetry::Histogram &Wall;
  telemetry::Histogram &Cpu;
};

/// RAII stage meter: on destruction observes the stage's wall seconds and
/// the calling thread's CPU seconds (CLOCK_THREAD_CPUTIME_ID) into the
/// stage's handles. A thread clock keeps concurrent stages (N serve
/// workers) from counting each other's CPU; wall minus CPU is the time
/// the thread spent off-CPU, blocked or waiting on pool workers whose CPU
/// it does not see.
class StageTimer {
public:
  explicit StageTimer(const StageHandles &Stage);
  ~StageTimer();

  StageTimer(const StageTimer &) = delete;
  StageTimer &operator=(const StageTimer &) = delete;

private:
  const StageHandles &Stage;
  double WallStart;
  double CpuStart;
};

} // namespace parallel
} // namespace pigeon

#endif // PIGEON_SUPPORT_PARALLEL_H

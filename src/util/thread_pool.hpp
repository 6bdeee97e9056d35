// Fixed-size worker pool used by the experiment runner to spread
// independent simulation runs across cores, plus the InnerExecutor view
// that every loop — the run fan-out and the round engine's per-node
// loops — runs through.
//
// The pool is deliberately minimal: tasks are plain std::function<void()>,
// there is no work stealing, and `parallel_for_indexed` is the only
// batching primitive — experiments need exactly "run body(i) for every i,
// wait for all, surface failures deterministically" and nothing more.
// Loop bodies are passed as a FunctionRef, so a loop call never
// allocates.
//
// Nested-parallelism contract (DESIGN.md §3): a process owns at most one
// level of parallelism at a time. Either the outer run fan-out holds the
// cores (ExperimentSpec.threads > 1) and every inner loop runs serial, or
// the runs execute serially and a single shared inner pool
// (ExperimentSpec.inner_threads) fans each run's node loops out. Never
// both — the experiment runner enforces this resolution in one place.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace roleshare::util {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: an object pointer plus a call
/// thunk, the shape of C++26 std::function_ref (P0792). Copying it copies
/// two words and never allocates. It must not outlive the callable, so
/// it is only ever a parameter of a call that returns after its last
/// invocation.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

class ThreadPool {
 public:
  /// Resolves a user-facing `threads=` knob: 0 means "all hardware
  /// threads" (never less than 1), any other value is taken as-is.
  static std::size_t resolve_thread_count(std::size_t requested);

  /// Starts `threads` workers (>= 1). A single-worker pool executes
  /// `parallel_for_indexed` inline on the calling thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not outlive the pool; the destructor
  /// drains the queue before joining the workers.
  void submit(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// workers, and blocks until all indices have finished. Every index is
  /// attempted even when earlier ones throw; afterwards the exception of
  /// the *lowest* failing index is rethrown, so the surfaced error does
  /// not depend on scheduling order.
  void parallel_for_indexed(std::size_t n,
                            FunctionRef<void(std::size_t)> body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;
};

/// Borrowed, copyable view of a ThreadPool (null = serial) that every
/// loop runs through: the experiment runner's run fan-out and the round
/// engine's per-node loops. One code path serves both the serial and the
/// parallel configuration.
///
/// A default-constructed (or nullptr-wrapped) executor runs every loop
/// inline on the calling thread. Determinism contract: both primitives are
/// bit-identical to their serial equivalents —
///  * `for_each_index` writes results at fixed indices, so scheduling
///    order cannot matter;
///  * `for_each_chunk` boundaries depend only on `n` (never on the worker
///    count), so reductions that fold per-chunk partials in chunk order
///    are bit-identical for every worker count, including exact float
///    reductions.
class InnerExecutor {
 public:
  /// Serial executor.
  InnerExecutor() = default;
  /// Executor over `pool`; nullptr (or a 1-worker pool) means serial.
  explicit InnerExecutor(ThreadPool* pool) : pool_(pool) {}

  /// Runs body(i) for every i in [0, n) with dynamic per-index claiming —
  /// the right shape for few, heavy, irregular items (one simulation run,
  /// one gossip propagation per vote). Blocks until all indices finish;
  /// every index is attempted and the lowest failing index's exception
  /// is rethrown, serial or not.
  void for_each_index(std::size_t n,
                      FunctionRef<void(std::size_t)> body) const;

  /// Runs body(chunk, begin, end) over contiguous chunks covering [0, n)
  /// — the right shape for many light items (per-node tallies, sortition
  /// batches). Chunk boundaries are a pure function of n; see chunk_count.
  /// `chunk` is the chunk's index in [0, chunk_count(n)) — reductions that
  /// keep per-chunk partials index them with it rather than re-deriving
  /// boundaries.
  void for_each_chunk(
      std::size_t n,
      FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) const;

  /// Number of chunks for_each_chunk splits [0, n) into. Depends only on
  /// n: ~kTargetChunks chunks, but never smaller than kMinChunk indices
  /// (except the last), so tiny loops do not drown in dispatch overhead.
  static std::size_t chunk_count(std::size_t n);

  /// Length of every chunk except possibly the last; chunk boundaries are
  /// begin = c * chunk_length(n). Callers that keep per-chunk partials can
  /// recover the chunk index as begin / chunk_length(n).
  static std::size_t chunk_length(std::size_t n);

  static constexpr std::size_t kTargetChunks = 64;
  static constexpr std::size_t kMinChunk = 256;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace roleshare::util

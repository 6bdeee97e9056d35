#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/require.hpp"

namespace roleshare::util {

std::size_t ThreadPool::resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  RS_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RS_REQUIRE(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t InnerExecutor::chunk_length(std::size_t n) {
  if (n == 0) return 0;
  // Chunk size from n alone: aim for kTargetChunks chunks but keep every
  // chunk at least kMinChunk indices (the last may be shorter). This is
  // the canonical formula; chunk_count derives from it.
  const std::size_t target = (n + kTargetChunks - 1) / kTargetChunks;
  return std::max(kMinChunk, target);
}

std::size_t InnerExecutor::chunk_count(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t chunk = chunk_length(n);
  return (n + chunk - 1) / chunk;
}

namespace {

using IndexBody = FunctionRef<void(std::size_t)>;

/// The one serial loop, behind both a serial executor and a pool whose
/// fan-out is 1: every index attempted, the lowest failing index's
/// exception rethrown.
void run_inline(std::size_t n, IndexBody body) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Shared state of one parallel_for_indexed call that fans out, allocated
/// on the caller's stack. Workers capture a single pointer to it, which
/// fits std::function's small-buffer storage, and the body is a
/// FunctionRef, so the call allocates nothing of its own; only the task
/// deque takes a new block now and then as tasks cycle through it. The
/// error of the *lowest* failing index is kept (first_error_index guards
/// the update), matching the serial loop without an O(n) error array.
///
/// Lifetime: the caller returns (and its frame dies) as soon as it sees
/// live == 0, so a worker's last touch of this state must be the
/// done_mutex unlock that publishes that zero. live is therefore read
/// and written only under done_mutex.
struct ParallelForState {
  ParallelForState(std::size_t count, IndexBody loop_body)
      : n(count), body(loop_body) {}

  const std::size_t n;
  const IndexBody body;
  std::atomic<std::size_t> next{0};
  std::mutex done_mutex;
  std::size_t live = 0;  // guarded by done_mutex
  std::condition_variable done;
  std::mutex error_mutex;
  std::size_t first_error_index = ~std::size_t{0};
  std::exception_ptr first_error;

  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (index < first_error_index) {
      first_error_index = index;
      first_error = std::current_exception();
    }
  }

  void claim_loop() {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        record_error(i);
      }
    }
    std::lock_guard<std::mutex> lock(done_mutex);
    if (--live == 0) done.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for_indexed(std::size_t n, IndexBody body) {
  const std::size_t fan_out = std::min(workers_.size(), n);
  if (fan_out <= 1) {
    run_inline(n, body);
    return;
  }
  ParallelForState state(n, body);
  state.live = fan_out;  // before any worker can see the state
  for (std::size_t w = 0; w < fan_out; ++w)
    submit([s = &state] { s->claim_loop(); });
  {
    std::unique_lock<std::mutex> lock(state.done_mutex);
    state.done.wait(lock, [&] { return state.live == 0; });
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

void InnerExecutor::for_each_index(std::size_t n, IndexBody body) const {
  if (pool_ == nullptr) {
    run_inline(n, body);
  } else {
    pool_->parallel_for_indexed(n, body);
  }
}

void InnerExecutor::for_each_chunk(
    std::size_t n,
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) const {
  if (n == 0) return;
  const std::size_t chunk = chunk_length(n);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    body(c, begin, std::min(n, begin + chunk));
  };
  for_each_index(chunk_count(n), run_chunk);
}

}  // namespace roleshare::util

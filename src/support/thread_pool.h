// Shared worker pool used by both the interpreter (work-sharing execution
// of `!$OMP PARALLEL DO` regions) and the compilation service (concurrent
// pipeline jobs).
//
// Handoff. A job is `count` items. The caller publishes it by storing one
// atomic word that packs a generation (high 32 bits) and the number of
// items left to claim (low 32 bits); workers and the caller claim with a
// CAS on that word, so a worker that is late for one job can never claim
// an item of the next. The caller runs item 0 itself, helps claim the
// rest, and then waits for an atomic pending count to reach zero. Nothing
// is allocated per call.
//
// Spin, then park. Between jobs a worker spins on the word for a bounded
// budget (kSpinBudget) and then parks on a condition variable; a publisher
// takes the mutex only when somebody is parked. Spinning is on only when
// the pool's lanes fit in std::thread::hardware_concurrency(); otherwise
// (a 1-core host, say) workers and a waiting caller park at once, so a
// spinner never steals the core of the thread it waits for.
//
// Measured on a 4-core x86-64 VM: an empty 12-iteration parallel_for at
// 4 lanes costs ~1.7 µs per region while the workers spin, against ~14 µs
// for the mutex/condition-variable handoff per region this replaced.
//
// Two entry points over the same handoff:
//
//   parallel_for   — split [lo, hi] into one contiguous chunk per lane;
//                    chunk k covers the k-th range and chunk 0 always runs
//                    on the calling thread, so the interpreter can index
//                    per-lane state (reduction partials, the last chunk's
//                    privates) by chunk.
//   for_each_index — run `count` independent tasks, one index per task,
//                    pulled dynamically by workers AND the caller; right
//                    for jobs of uneven size (compilation units).
//
// One caller at a time: a pool is not reentrant, and a task must not
// submit work to the pool it runs on.
//
// ThreadPoolLease keeps one pool per calling thread, so a thread that runs
// many short programs (the interpreter's ParDo regions) at one lane count
// starts and joins its lanes once, not once per run (~80 µs at 4 lanes).
// A run at another lane count replaces the kept pool; a nested run, or one
// with more lanes than the host has cores, gets a private pool, so a thread
// never parks more than hardware_concurrency() - 1 kept lanes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ap {

class ThreadPool {
 public:
  // How long an idle lane polls before it parks: long enough to span the
  // serial code between back-to-back parallel regions, short enough that
  // an idle pool costs nothing measurable.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  // Total execution lanes, including the calling thread.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Split [lo, hi] (inclusive, step 1) into min(size(), hi-lo+1) contiguous
  // chunks and run `fn(chunk_lo, chunk_hi, chunk_index)` on each; the
  // calling thread executes chunk 0. Blocks until every chunk finishes.
  // Exceptions thrown by `fn` are rethrown on the caller (first one wins).
  template <class Fn>
  void parallel_for(int64_t lo, int64_t hi, Fn&& fn) {
    if (hi < lo) return;
    const int64_t total = hi - lo + 1;
    const int64_t n = std::min<int64_t>(size(), total);
    const int64_t base = total / n, rem = total % n;
    for_each_index(n, [&](int64_t k, int) {
      int64_t start = lo + k * base + std::min(k, rem);
      fn(start, start + base - (k < rem ? 0 : 1), static_cast<int>(k));
    });
  }

  // Run `fn(index, lane)` for every index in [0, count), dynamically load
  // balanced: workers and the calling thread pull one index at a time, so
  // slow tasks don't serialize behind a static partition. `lane` is a
  // dense task ordinal, NOT a stable thread id. Blocks until all tasks
  // finish; first exception is rethrown on the caller.
  template <class Fn>
  void for_each_index(int64_t count, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run(count, &fn, [](const void* ctx, int64_t i) {
      (*static_cast<const F*>(ctx))(i, static_cast<int>(i));
    });
  }

 private:
  using Invoke = void (*)(const void* ctx, int64_t item);

  // Runs items [0, count) of `invoke(ctx, item)`: item 0 on the caller,
  // the rest claimed by whichever lane gets there first.
  void run(int64_t count, const void* ctx, Invoke invoke);
  void worker_main();
  // Claims and runs items of generation `gen` until none is left.
  void claim_items(uint64_t gen);
  void run_item(Invoke invoke, const void* ctx, int64_t item);
  // Blocks until the word's generation differs from `seen`; false on
  // shutdown.
  bool await_job(uint64_t seen);
  void await_done();

  bool spin_ = false;

  // The published job. Read by workers before they claim, so a late
  // reader may see the next job's values; a successful claim proves it
  // read this job's.
  std::atomic<uint64_t> word_{0};  // generation << 32 | unclaimed items
  std::atomic<Invoke> invoke_{nullptr};
  std::atomic<const void*> ctx_{nullptr};
  std::atomic<int64_t> pending_{0};  // items not yet finished

  std::mutex mu_;  // parking and error_
  std::condition_variable cv_work_, cv_done_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};
  std::exception_ptr error_;

  std::vector<std::thread> workers_;  // last: they use everything above
};

// The calling thread's kept pool of `num_threads` lanes, created on first
// use, replaced when a lease asks for another lane count, and joined when
// the thread exits. Runs on different threads never share a pool; a second
// lease taken on the same thread while one is held (a nested or overlapping
// run) gets a private pool, since a pool is not reentrant, and so does a
// lease for more lanes than hardware_concurrency(). Take and drop a lease
// on the thread that runs the work.
class ThreadPoolLease {
 public:
  explicit ThreadPoolLease(int num_threads);
  ~ThreadPoolLease();

  ThreadPoolLease(const ThreadPoolLease&) = delete;
  ThreadPoolLease& operator=(const ThreadPoolLease&) = delete;

  ThreadPool& pool() const { return *pool_; }

 private:
  ThreadPool* pool_ = nullptr;
  bool* held_ = nullptr;               // the kept pool's in-use flag
  std::unique_ptr<ThreadPool> own_;    // the private fallback
};

}  // namespace ap

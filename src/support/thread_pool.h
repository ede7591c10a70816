// Shared worker pool used by both the interpreter (work-sharing execution
// of `!$OMP PARALLEL DO` regions) and the compilation service (concurrent
// pipeline jobs).
//
// Handoff. A job is `count` items. The caller writes it into one cache
// line, the job line: the item count and a generation packed in one atomic
// word, the callable (copied into the line when it is small and trivially
// copyable, a pointer to it otherwise) and parallel_for's range. A lane
// that sees a new generation reads everything it needs to start from that
// line; it never chases a pointer into the caller's stack. Item k < size()
// belongs to lane k (the caller is lane 0); items at or above size() are
// claimed dynamically, by the caller and every lane that took part, from
// one atomic counter.
//
// Completion. Each lane owns a completion line: the generation of its last
// finished item, whether it threw, and a small report the item may return
// (parallel_for's `join` reads it). The caller joins by polling every
// participating lane's line in one pass. Nothing is allocated per call.
//
// Spin, then park. Between jobs a lane spins on the job word for a bounded
// budget (kSpinBudget) and then parks on a condition variable; a publisher
// takes the mutex only when somebody is parked. Spinning is on only when
// the pool's lanes fit in std::thread::hardware_concurrency(). While it is
// on, item k runs on lane k, so per-lane state stays in that lane's cache:
// the caller runs a lane's item itself only when some lane is parked, or
// when the lane has not started it kStealAfter after the caller finished
// its own share (a lane descheduled by another process, say). Otherwise
// (park mode: more lanes than cores, or a 1-core host) lanes and a waiting
// caller park at once, and after its own share the caller claims and runs
// every item whose lane has not started it. A claim is a CAS on the
// lane's claim word, which only the lane touches while lanes spin.
//
// Measured with TSC stamps on a 4-core x86-64 VM (empty 12-iteration
// parallel_for at 4 lanes, lanes spinning; medians of 5 runs of 20,000
// regions, times from the call): the three lanes start together at
// ~630 ns, where the shared claim word this replaced started them one
// after another at ~650, ~770 and ~910 ns; a lane's empty chunk takes
// ~20 ns against 135-220 ns, since chunk k's state no longer moves
// between cores; the caller is back ~480 ns after the last chunk ends
// (~570 ns before), and ~1.1 µs after the call (~1.6 µs before).
//
// Two entry points over the same handoff:
//
//   parallel_for   — split [lo, hi] into one contiguous chunk per lane;
//                    chunk k covers the k-th range and runs as item k, so
//                    chunk 0 always runs on the calling thread and the
//                    interpreter can index per-lane state (reduction
//                    partials, the last chunk's privates) by chunk.
//   for_each_index — run `count` independent tasks, one index per task;
//                    indices past size() are pulled dynamically, which
//                    suits jobs of uneven size (compilation units).
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
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ap {

class ThreadPool {
 public:
  // How long an idle lane polls before it parks: long enough to span the
  // serial code between back-to-back parallel regions, short enough that
  // an idle pool costs nothing measurable.
  static constexpr std::chrono::microseconds kSpinBudget{50};
  // How long a spinning caller waits for a lane to finish before it runs
  // the lane's item itself, if the lane has not started it.
  static constexpr std::chrono::microseconds kStealAfter{5};
  // Bytes of callable the job line carries by value.
  static constexpr size_t kInlineBytes = 32;
  // Bytes of report a parallel_for chunk may return on its completion line.
  static constexpr size_t kReportBytes = 40;

  // Whether a callable of type F travels inside the job line (otherwise the
  // line carries a pointer to it).
  template <class F>
  static constexpr bool carries_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(int64_t) &&
      std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  // Total execution lanes, including the calling thread.
  int size() const { return lanes_; }

  // Split [lo, hi] (inclusive, step 1) into min(size(), hi-lo+1) contiguous
  // chunks and run `fn(chunk_lo, chunk_hi, chunk_index)` on each; the
  // calling thread executes chunk 0. Blocks until every chunk finishes.
  // Every chunk runs even when one throws; the first exception is rethrown
  // on the caller.
  template <class Fn>
  void parallel_for(int64_t lo, int64_t hi, Fn&& fn) {
    parallel_for(lo, hi, std::forward<Fn>(fn), [](int, const auto&...) {});
  }

  // As above, but each chunk returns a report, a trivially copyable value
  // of at most kReportBytes that travels back on its lane's completion
  // line. After every chunk finished, the caller runs `join(k, report)`
  // (or `join(k)` when `fn` returns void) for each chunk k that returned,
  // in chunk order, and only then rethrows a chunk's exception.
  template <class Fn, class Join>
  void parallel_for(int64_t lo, int64_t hi, Fn&& fn, Join&& join) {
    if (hi < lo) return;
    using F = std::remove_cv_t<std::remove_reference_t<Fn>>;
    using R = std::invoke_result_t<const F&, int64_t, int64_t, int>;
    static_assert(reportable<R>(),
                  "a chunk report must be small and trivially copyable");
    const int64_t n = std::min<int64_t>(size(), hi - lo + 1);
    if (n == 1) {
      if constexpr (std::is_void_v<R>) {
        fn(lo, hi, 0);
        join(0);
      } else {
        join(0, fn(lo, hi, 0));
      }
      return;
    }
    job_.lo = lo;
    job_.hi = hi;
    carry(fn);
    run(n, &chunk_thunk<F, R>);
    for (int k = 0; k < n; ++k) {
      const Completion& c = done_[static_cast<size_t>(k)];
      if (c.failed) continue;
      if constexpr (std::is_void_v<R>)
        join(k);
      else
        join(k, *std::launder(reinterpret_cast<const R*>(c.report)));
    }
    rethrow_error();
  }

  // Run `fn(index, lane)` for every index in [0, count). Index k < size()
  // runs on lane k (the caller is lane 0; see the header comment for park
  // mode); the rest are pulled one at a time by every lane that is done
  // with its own, so slow tasks don't serialize behind a static partition.
  // `lane` is a dense task ordinal, NOT a stable thread id. Blocks until
  // all tasks finish; the first exception is rethrown on the caller.
  template <class Fn>
  void for_each_index(int64_t count, Fn&& fn) {
    if (count <= 0) return;
    if (count == 1 || size() == 1) {
      for (int64_t i = 0; i < count; ++i) fn(i, static_cast<int>(i));
      return;
    }
    using F = std::remove_cv_t<std::remove_reference_t<Fn>>;
    carry(fn);
    run(count, &index_thunk<F>);
    rethrow_error();
  }

 private:
  struct Job;
  // Runs item `item` of a job of `count` items; `report` is the item's
  // completion-line buffer.
  using Invoke = void (*)(const Job& job, int64_t count, int64_t item,
                          void* report);

  // The job line. The caller writes the plain fields only while no lane
  // reads them: a lane reads them after it saw this generation's word and
  // claimed its item, and before it marks its item done; the caller
  // rewrites them only after every such lane did.
  struct alignas(64) Job {
    std::atomic<uint64_t> word{0};  // generation << 32 | item count
    Invoke invoke = nullptr;
    int64_t lo = 0, hi = 0;  // parallel_for's range
    alignas(int64_t) unsigned char closure[kInlineBytes];
  };
  static_assert(sizeof(Job) == 64, "the job is one cache line");

  // A lane's completion line (done_[k]; the caller's own is done_[0]), and
  // on the next line the lane's claim word, which the caller touches only
  // to run the lane's item in its stead.
  struct alignas(64) Completion {
    std::atomic<uint64_t> gen{0};  // generation of the last finished item
    bool failed = false;           // that item threw
    alignas(int64_t) unsigned char report[kReportBytes];
    // The last generation whose item k the lane, or the caller in its
    // stead, claimed.
    alignas(64) std::atomic<uint64_t> claim{0};
  };

  template <class R>
  static constexpr bool reportable() {
    if constexpr (std::is_void_v<R>)
      return true;
    else
      return std::is_trivially_copyable_v<R> && sizeof(R) <= kReportBytes &&
             alignof(R) <= alignof(int64_t);
  }

  template <class F>
  void carry(const F& fn) {
    if constexpr (carries_inline<F>)
      ::new (static_cast<void*>(job_.closure)) F(fn);
    else
      ::new (static_cast<void*>(job_.closure)) const F*(&fn);
  }
  template <class F>
  static const F& carried(const Job& job) {
    if constexpr (carries_inline<F>)
      return *std::launder(reinterpret_cast<const F*>(job.closure));
    else
      return **std::launder(reinterpret_cast<const F* const*>(job.closure));
  }

  template <class F, class R>
  static void chunk_thunk(const Job& job, int64_t count, int64_t k,
                          void* report) {
    const int64_t total = job.hi - job.lo + 1;
    const int64_t base = total / count, rem = total % count;
    const int64_t start = job.lo + k * base + std::min(k, rem);
    const int64_t end = start + base - (k < rem ? 0 : 1);
    if constexpr (std::is_void_v<R>)
      carried<F>(job)(start, end, static_cast<int>(k));
    else
      ::new (report) R(carried<F>(job)(start, end, static_cast<int>(k)));
  }
  template <class F>
  static void index_thunk(const Job& job, int64_t, int64_t i, void*) {
    carried<F>(job)(i, static_cast<int>(i));
  }

  // Publishes the job (whose closure and range are already written), runs
  // item 0 and the caller's share of the rest, and returns once every item
  // finished. Exceptions are kept for rethrow_error().
  void run(int64_t count, Invoke invoke);
  void wake_lanes();
  void lane_main(int k);
  // Runs `item`, with its report and fault flag in completion line `c`.
  void run_item(int64_t count, int64_t item, Completion& c);
  // Runs dynamically claimed items (those >= size()) until none is left.
  void claim_rest(int64_t count);
  // Claims and runs, in their lanes' stead, the items among [1, m) of
  // generation `gen` that no lane has started.
  void run_unstarted(uint64_t gen, int64_t count, int64_t m);
  // Blocks until the job word's generation differs from `seen`; returns the
  // word, or 0 on shutdown.
  uint64_t await_job(uint64_t seen);
  // Blocks until lanes [1, m) have all finished generation `gen`.
  void await_lanes(uint64_t gen, int64_t count, int64_t m);
  bool lanes_done(uint64_t gen, int64_t m) const;
  // Keeps the exception being handled, unless an earlier one was kept.
  void keep_error();
  void rethrow_error();

  // Read by every lane on every job; written only at construction or when
  // somebody parks.
  int lanes_ = 1;
  bool spin_ = false;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<Completion[]> done_;  // one per lane, the caller's first

  Job job_;
  alignas(64) std::atomic<int64_t> next_{0};  // next dynamically claimed item

  alignas(64) std::mutex mu_;  // parking and error_
  std::condition_variable cv_work_, cv_done_;
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

#include "support/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace ap {

namespace {

constexpr uint64_t kItemMask = 0xffffffffu;

uint64_t generation(uint64_t word) { return word >> 32; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `done` for at most `budget`; true once it holds.
template <class Pred>
bool spin_until(Pred done, std::chrono::microseconds budget) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  for (unsigned n = 1;; ++n) {
    if (done()) return true;
    cpu_relax();
    if (n % 64 == 0 && std::chrono::steady_clock::now() > deadline)
      return false;
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : lanes_(std::max(1, num_threads)),
      done_(std::make_unique<Completion[]>(static_cast<size_t>(lanes_))) {
  unsigned hw = std::thread::hardware_concurrency();
  spin_ = hw != 0 && static_cast<unsigned>(lanes_) <= hw;
  workers_.reserve(static_cast<size_t>(lanes_ - 1));
  for (int k = 1; k < lanes_; ++k)
    workers_.emplace_back([this, k] { lane_main(k); });
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(int64_t count, Invoke invoke) {
  if (static_cast<uint64_t>(count) > kItemMask)
    throw std::length_error("ThreadPool: too many items in one job");
  job_.invoke = invoke;
  next_.store(lanes_, std::memory_order_relaxed);
  const uint64_t gen = generation(job_.word.load(std::memory_order_relaxed)) + 1;
  // A release store: the caller starts its own item while the line makes
  // its way to the lanes. Lanes parked since an earlier job are woken now.
  // One that parks while the store is in flight is seen after item 0: it
  // is woken then, or, when others were woken already, the caller runs its
  // item below.
  job_.word.store(gen << 32 | static_cast<uint64_t>(count),
                  std::memory_order_release);
  const bool woken = sleepers_.load(std::memory_order_relaxed) > 0;
  if (woken) wake_lanes();

  run_item(count, 0, done_[0]);
  // Against sleepers_ (see await_job): either a parking lane saw the word,
  // or the load below sees the lane.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!woken && sleepers_.load() > 0) wake_lanes();
  if (count > lanes_) claim_rest(count);
  const int64_t m = std::min<int64_t>(count, lanes_);
  // A parked lane takes tens of microseconds to wake: rather than wait,
  // run the items of lanes that have not started.
  if (!spin_ || sleepers_.load() > 0) run_unstarted(gen, count, m);
  await_lanes(gen, count, m);
}

void ThreadPool::wake_lanes() {
  std::lock_guard<std::mutex> lock(mu_);
  cv_work_.notify_all();
}

void ThreadPool::run_unstarted(uint64_t gen, int64_t count, int64_t m) {
  for (int64_t k = 1; k < m; ++k) {
    Completion& c = done_[static_cast<size_t>(k)];
    uint64_t claimed = c.claim.load(std::memory_order_relaxed);
    if (claimed == gen || !c.claim.compare_exchange_strong(claimed, gen))
      continue;
    run_item(count, k, c);
    c.gen.store(gen, std::memory_order_relaxed);
  }
}

void ThreadPool::lane_main(int k) {
  Completion& me = done_[static_cast<size_t>(k)];
  for (uint64_t seen = 0;;) {
    const uint64_t w = await_job(seen);
    if (w == 0) return;
    seen = generation(w);
    const int64_t count = static_cast<int64_t>(w & kItemMask);
    if (k >= count) continue;
    // The caller may have run this item in the lane's stead, in this
    // generation or, when `w` is stale, a later one. A claim still behind
    // `seen` proves the job is still this one: it cannot finish before
    // item k is claimed. The claim word is on a line of its own, which the
    // caller touches only when it runs a late lane's item.
    uint64_t claimed = me.claim.load(std::memory_order_relaxed);
    if (claimed >= seen || !me.claim.compare_exchange_strong(claimed, seen))
      continue;
    run_item(count, k, me);
    if (count > lanes_) claim_rest(count);
    // Sequentially consistent, against caller_parked_: either the caller
    // sees this item done or this lane sees the caller parked.
    me.gen.store(seen);
    if (caller_parked_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_item(int64_t count, int64_t item, Completion& c) {
  try {
    job_.invoke(job_, count, item, c.report);
    c.failed = false;
  } catch (...) {
    c.failed = true;
    keep_error();
  }
}

// Items past the lanes carry no report; a throw is kept like any other.
void ThreadPool::claim_rest(int64_t count) {
  for (;;) {
    const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      job_.invoke(job_, count, i, nullptr);
    } catch (...) {
      keep_error();
    }
  }
}

void ThreadPool::keep_error() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::current_exception();
}

// The parking handshakes pair a sequentially consistent write on one side
// with a load on the other (sleepers_ against the job word, which run()
// fences, and caller_parked_ against the completion lines), so either the
// waiter sees the news or the notifier sees the waiter; the notifier then
// takes the mutex, which the waiter holds until it is inside wait().
uint64_t ThreadPool::await_job(uint64_t seen) {
  uint64_t w = 0;
  auto ready = [&] {
    w = job_.word.load();
    return shutdown_.load() || generation(w) != seen;
  };
  if (!spin_ || !spin_until(ready, kSpinBudget)) {
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1);
    cv_work_.wait(lock, ready);
    sleepers_.fetch_sub(1);
  }
  return shutdown_.load() ? 0 : w;
}

// One pass over every participating lane's completion line, so the caller
// waits on all of them at once rather than one after another.
bool ThreadPool::lanes_done(uint64_t gen, int64_t m) const {
  bool all = true;
  for (int64_t k = 1; k < m; ++k)
    all &= done_[static_cast<size_t>(k)].gen.load() == gen;
  return all;
}

void ThreadPool::await_lanes(uint64_t gen, int64_t count, int64_t m) {
  auto done = [&] { return lanes_done(gen, m); };
  if (spin_) {
    if (spin_until(done, kStealAfter)) return;
    // A spinning lane starts within a microsecond; one that has not
    // started by now was descheduled or has just parked.
    run_unstarted(gen, count, m);
    if (spin_until(done, kSpinBudget)) return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  caller_parked_.store(true);
  cv_done_.wait(lock, done);
  caller_parked_.store(false);
}

void ThreadPool::rethrow_error() {
  std::exception_ptr error = std::exchange(error_, nullptr);
  if (error) std::rethrow_exception(error);
}

namespace {

// The one pool a thread keeps between runs, and whether a lease holds it.
struct KeptPool {
  std::unique_ptr<ThreadPool> pool;
  bool held = false;
};

thread_local KeptPool kept_pool;

}  // namespace

ThreadPoolLease::ThreadPoolLease(int num_threads) {
  int lanes = std::max(1, num_threads);
  unsigned hw = std::thread::hardware_concurrency();
  // A nested run, or one wider than the host, gets a private pool: the kept
  // one is busy, or keeping it would park more threads than there are cores.
  if (kept_pool.held || (hw != 0 && static_cast<unsigned>(lanes) > hw)) {
    own_ = std::make_unique<ThreadPool>(lanes);
    pool_ = own_.get();
    return;
  }
  if (!kept_pool.pool || kept_pool.pool->size() != lanes)
    kept_pool.pool = std::make_unique<ThreadPool>(lanes);
  kept_pool.held = true;
  held_ = &kept_pool.held;
  pool_ = kept_pool.pool.get();
}

ThreadPoolLease::~ThreadPoolLease() {
  if (held_) *held_ = false;
}

}  // namespace ap

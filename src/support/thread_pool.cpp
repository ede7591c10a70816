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

// Polls `done` for at most kSpinBudget; true once it holds.
template <class Pred>
bool spin_until(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (unsigned n = 1;; ++n) {
    if (done()) return true;
    cpu_relax();
    if (n % 64 == 0 && std::chrono::steady_clock::now() > deadline)
      return false;
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int extra = std::max(0, num_threads - 1);
  unsigned hw = std::thread::hardware_concurrency();
  spin_ = hw != 0 && static_cast<unsigned>(extra + 1) <= hw;
  workers_.reserve(static_cast<size_t>(extra));
  for (int i = 0; i < extra; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(int64_t count, const void* ctx, Invoke invoke) {
  if (count <= 0) return;
  if (count == 1 || workers_.empty()) {
    for (int64_t i = 0; i < count; ++i) invoke(ctx, i);
    return;
  }
  if (static_cast<uint64_t>(count) > kItemMask)
    throw std::length_error("ThreadPool: too many items in one job");

  // The previous job has no unclaimed item left, so no lane can claim
  // anything until the word below publishes these.
  invoke_.store(invoke, std::memory_order_relaxed);
  ctx_.store(ctx, std::memory_order_relaxed);
  pending_.store(count, std::memory_order_relaxed);
  uint64_t gen = generation(word_.load(std::memory_order_relaxed)) + 1;
  // Item 0 is the caller's; items 1..count-1 are left to claim.
  word_.store(gen << 32 | static_cast<uint64_t>(count - 1));
  if (sleepers_.load() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_work_.notify_all();
  }

  run_item(invoke, ctx, 0);
  claim_items(gen);
  await_done();
  std::exception_ptr error = std::exchange(error_, nullptr);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_main() {
  for (uint64_t seen = 0; await_job(seen);) {
    seen = generation(word_.load(std::memory_order_acquire));
    claim_items(seen);
  }
}

// The word's low half is the highest unclaimed item, so it also counts
// the items left, and claiming decrements it: whether anything is left is
// decided by the word alone. The job's fields are read before the CAS; its
// success proves they were this job's, since a job with an unclaimed item
// cannot finish, and the next job's fields are written only after this
// one finished.
void ThreadPool::claim_items(uint64_t gen) {
  uint64_t w = word_.load(std::memory_order_acquire);
  for (;;) {
    if (generation(w) != gen || (w & kItemMask) == 0) return;
    int64_t item = static_cast<int64_t>(w & kItemMask);
    Invoke invoke = invoke_.load(std::memory_order_relaxed);
    const void* ctx = ctx_.load(std::memory_order_relaxed);
    if (word_.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      run_item(invoke, ctx, item);
      w = word_.load(std::memory_order_acquire);
    }
  }
}

void ThreadPool::run_item(Invoke invoke, const void* ctx, int64_t item) {
  try {
    invoke(ctx, item);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_done_.notify_one();
  }
}

// The parking handshakes below pair a sequentially consistent store on one
// side with a load on the other (sleepers_ against word_, caller_parked_
// against pending_), so either the waiter sees the news or the notifier
// sees the waiter; the notifier then takes the mutex, which the waiter
// holds until it is inside wait().
bool ThreadPool::await_job(uint64_t seen) {
  auto ready = [&] {
    return shutdown_.load() || generation(word_.load()) != seen;
  };
  if (!spin_ || !spin_until(ready)) {
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1);
    cv_work_.wait(lock, ready);
    sleepers_.fetch_sub(1);
  }
  return !shutdown_.load();
}

void ThreadPool::await_done() {
  auto done = [&] { return pending_.load() == 0; };
  if (spin_ && spin_until(done)) return;
  std::unique_lock<std::mutex> lock(mu_);
  caller_parked_.store(true);
  cv_done_.wait(lock, done);
  caller_parked_.store(false);
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

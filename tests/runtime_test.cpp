// Unit tests for the runtime building blocks: ArrayStore/ArrayView layout,
// GlobalStore, and the work-sharing ThreadPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "interp/storage.h"
#include "support/thread_pool.h"

namespace ap::interp {
namespace {

TEST(ArrayStore, ColumnMajorOffsets) {
  ArrayStore st(fir::Type::Real, {1, 1}, {3, 4});
  EXPECT_EQ(st.size(), 12u);
  EXPECT_EQ(st.linear_offset({1, 1}), 0);
  EXPECT_EQ(st.linear_offset({2, 1}), 1);   // column-major: rows adjacent
  EXPECT_EQ(st.linear_offset({1, 2}), 3);
  EXPECT_EQ(st.linear_offset({3, 4}), 11);
}

TEST(ArrayStore, LowerBoundsRespected) {
  ArrayStore st(fir::Type::Integer, {0, 2}, {4, 3});
  EXPECT_EQ(st.linear_offset({0, 2}), 0);
  EXPECT_EQ(st.linear_offset({3, 4}), 11);
  EXPECT_FALSE(st.linear_offset({-1, 2}).has_value());
  EXPECT_FALSE(st.linear_offset({0, 5}).has_value());
}

TEST(ArrayStore, RankMismatchRejected) {
  ArrayStore st(fir::Type::Real, {1}, {8});
  EXPECT_FALSE(st.linear_offset({1, 1}).has_value());
}

TEST(ArrayView, ElementBaseWindow) {
  auto st = std::make_shared<ArrayStore>(fir::Type::Real, std::vector<int64_t>{1},
                                         std::vector<int64_t>{16});
  std::iota(st->raw().begin(), st->raw().end(), 0.0);
  // View starting at element 5 (offset 4), assumed size.
  ArrayView v{st, 4, {1}, {-1}, false};
  auto c1 = v.cell({1});
  ASSERT_TRUE(c1.has_value());
  EXPECT_DOUBLE_EQ(st->data()[*c1], 4.0);
  auto c3 = v.cell({3});
  EXPECT_DOUBLE_EQ(st->data()[*c3], 6.0);
  // Beyond the underlying store: rejected.
  EXPECT_FALSE(v.cell({13}).has_value());
}

TEST(ArrayView, ReshapedWindow) {
  // A 12-element store viewed as (3,4) from its start.
  auto st = std::make_shared<ArrayStore>(fir::Type::Real, std::vector<int64_t>{1},
                                         std::vector<int64_t>{12});
  ArrayView v{st, 0, {1, 1}, {3, 4}, false};
  EXPECT_EQ(*v.cell({1, 1}), 0);
  EXPECT_EQ(*v.cell({3, 4}), 11);
  EXPECT_FALSE(v.cell({4, 1}).has_value());  // exceeds view extent
}

TEST(GlobalStore, SharedByKey) {
  GlobalStore g;
  auto a1 = g.get_or_create_array("BLK/A", fir::Type::Real, {1}, {8});
  auto a2 = g.get_or_create_array("BLK/A", fir::Type::Real, {1}, {8});
  EXPECT_EQ(a1.get(), a2.get());
  auto b = g.get_or_create_array("BLK/B", fir::Type::Real, {1}, {8});
  EXPECT_NE(a1.get(), b.get());
}

TEST(GlobalStore, ScalarCellsStableAndTyped) {
  GlobalStore g;
  double* s1 = g.get_or_create_scalar("C/S", false);
  double* s2 = g.get_or_create_scalar("C/S", false);
  EXPECT_EQ(s1, s2);
  *s1 = 42.0;
  EXPECT_TRUE(g.get_or_create_scalar("C/K", true) != nullptr);
  EXPECT_TRUE(g.scalar_is_int("C/K"));
  EXPECT_FALSE(g.scalar_is_int("C/S"));
  auto snap = g.snapshot_scalars();
  EXPECT_DOUBLE_EQ(snap.at("C/S"), 42.0);
}

TEST(ThreadPool, CoversEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1001);
  pool.parallel_for(1, 1000, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i <= hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (size_t i = 1; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 4, [&](int64_t, int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleIterationRunsOnCaller) {
  ThreadPool pool(8);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(3, 3, [&](int64_t lo, int64_t hi, int idx) {
    EXPECT_EQ(lo, 3);
    EXPECT_EQ(hi, 3);
    EXPECT_EQ(idx, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ChunksAreContiguousAndOrdered) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.parallel_for(1, 10, [&](int64_t lo, int64_t hi, int) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({lo, hi});
  });
  std::sort(chunks.begin(), chunks.end());
  int64_t expect = 1;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GE(hi, lo);
    expect = hi + 1;
  }
  EXPECT_EQ(expect, 11);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1, 100,
                        [&](int64_t lo, int64_t, int) {
                          if (lo > 1) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(1, 40, [&](int64_t lo, int64_t hi, int) {
      total.fetch_add(hi - lo + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200 * 40);
}

TEST(ThreadPool, CallerExceptionStillJoinsWorkers) {
  ThreadPool pool(4);
  // Chunk 0 (caller) throws; workers must be drained without deadlock and
  // the pool must stay usable.
  EXPECT_THROW(pool.parallel_for(1, 100,
                                 [&](int64_t lo, int64_t, int idx) {
                                   if (idx == 0) throw std::runtime_error("c");
                                   (void)lo;
                                 }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.parallel_for(1, 8, [&](int64_t, int64_t, int) { ok++; });
  EXPECT_GT(ok.load(), 0);
}

TEST(ThreadPool, ChunkIndexFollowsIterationOrder) {
  // The VM's copy-out reads the last chunk's lane: chunk k must cover the
  // k-th contiguous range, and the last index must end at hi.
  ThreadPool pool(4);
  for (int64_t n : {2, 3, 4, 5, 12, 30}) {
    std::vector<std::pair<int64_t, int64_t>> chunks(4, {-1, -1});
    pool.parallel_for(1, n, [&](int64_t lo, int64_t hi, int idx) {
      chunks[static_cast<size_t>(idx)] = {lo, hi};
    });
    int64_t used = std::min<int64_t>(4, n), expect = 1;
    for (int64_t k = 0; k < used; ++k) {
      EXPECT_EQ(chunks[static_cast<size_t>(k)].first, expect) << n;
      expect = chunks[static_cast<size_t>(k)].second + 1;
    }
    EXPECT_EQ(expect, n + 1) << n;
  }
}

// Sleeps well past the spin budget, so every worker has parked.
void let_workers_park() {
  std::this_thread::sleep_for(3 * ThreadPool::kSpinBudget);
}

// Runs parallel_for(1, n) and requires every iteration exactly once.
void expect_each_iteration_once(ThreadPool& pool, int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n) + 1);
  pool.parallel_for(1, n, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i <= hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 1; i <= n; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, WakesParkedWorkersWithoutLosingARegion) {
  ThreadPool pool(4);
  for (int region = 0; region < 10000; ++region) {
    let_workers_park();
    expect_each_iteration_once(pool, 8);
    if (HasFatalFailure()) return;
  }
}

TEST(ThreadPool, ParallelForAndForEachIndexInterleave) {
  // Back-to-back jobs of different sizes: a lane still polling one job
  // while the next is published must neither claim an item of the next
  // with the last one's state nor count an item twice.
  ThreadPool pool(4);
  for (int round = 0; round < 50000; ++round) {
    expect_each_iteration_once(pool, 37);
    std::vector<std::atomic<int>> hits(13);
    pool.for_each_index(13, [&](int64_t i, int) {
      hits[static_cast<size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    if (round % 5000 == 0) let_workers_park();
  }
}

TEST(ThreadPool, LeaseKeepsOnePoolPerThread) {
  ThreadPool* kept = nullptr;
  {
    ThreadPoolLease a(4);
    kept = &a.pool();
    EXPECT_EQ(kept->size(), 4);
    expect_each_iteration_once(a.pool(), 37);
  }
  {
    // The next run on this thread gets the same pool back ...
    ThreadPoolLease again(4);
    EXPECT_EQ(&again.pool(), kept);
    // ... a nested run gets a private one (a pool is not reentrant) ...
    ThreadPoolLease nested(4);
    EXPECT_NE(&nested.pool(), kept);
    expect_each_iteration_once(nested.pool(), 37);
    // ... and so does another lane count while the kept pool is held.
    ThreadPoolLease two(2);
    EXPECT_NE(&two.pool(), kept);
    EXPECT_EQ(two.pool().size(), 2);
  }
  // Concurrent runs on two threads never share a pool.
  ThreadPool* other = nullptr;
  std::thread t([&] {
    ThreadPoolLease b(4);
    other = &b.pool();
    expect_each_iteration_once(b.pool(), 37);
  });
  ThreadPoolLease mine(4);
  expect_each_iteration_once(mine.pool(), 37);
  t.join();
  EXPECT_EQ(&mine.pool(), kept);
  EXPECT_NE(other, kept);
}

// The OS threads this process has, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(ThreadPool, LeasesAtManyLaneCountsKeepAtMostOnePool) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw == 0 || process_threads() < 0) GTEST_SKIP() << "no thread count";
  // A fresh thread keeps nothing yet; runs at lane counts 2..16 on it (a
  // server lane answering clients that ask for varied thread counts) must
  // leave at most one kept pool, of at most hw lanes, parked behind them.
  // Sanitizer runtimes start a helper thread with the first thread the
  // program creates; let that happen before counting.
  std::thread([] {}).join();
  int before = process_threads();
  int after_leases = -1, after_two = -1;
  std::thread t([&] {
    for (int lanes = 2; lanes <= 16; ++lanes) {
      ThreadPoolLease lease(lanes);
      EXPECT_EQ(lease.pool().size(), lanes);
      expect_each_iteration_once(lease.pool(), 37);
    }
    after_leases = process_threads();
    // A 2-lane run after the others replaces the kept pool: one lane left.
    { ThreadPoolLease lease(2); }
    after_two = process_threads();
  });
  t.join();
  // The thread itself plus its kept lanes, at most.
  EXPECT_LE(after_leases - before, 1 + (hw - 1));
  EXPECT_LE(after_two - before, 1 + 1);
  // The thread's kept pool was joined when it exited.
  EXPECT_LE(process_threads(), before);
}

TEST(ThreadPool, WorkerChunkExceptionAfterParkPropagates) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    let_workers_park();
    std::atomic<int> ran{0};
    // The caller lingers in chunk 0, so the woken workers take the others.
    EXPECT_THROW(pool.parallel_for(1, 4,
                                   [&](int64_t, int64_t, int idx) {
                                     ran++;
                                     if (idx == 0)
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(1));
                                     if (idx == 3)
                                       throw std::runtime_error("worker");
                                   }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 4);
  }
  expect_each_iteration_once(pool, 100);
}

TEST(ThreadPool, DestroyedWhileWorkersParkOrSpin) {
  { ThreadPool never_used(4); }
  for (int i = 0; i < 200; ++i) {
    ThreadPool pool(4);
    pool.parallel_for(1, 4, [](int64_t, int64_t, int) {});
    // Even rounds destroy the pool while its workers still spin.
    if (i % 2) let_workers_park();
  }
}

TEST(ThreadPool, MoreLanesThanHardwareThreads) {
  // Park mode: more lanes than cores, so the caller runs the items of
  // lanes that have not started. No chunk may run twice or be lost, and
  // every returned chunk is joined once.
  int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(hw + 3);
  ASSERT_EQ(pool.size(), hw + 3);
  for (int round = 0; round < 500; ++round) {
    const int64_t n = 1 + round % (3 * pool.size());
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n) + 1);
    std::vector<std::atomic<int>> chunk_seen(static_cast<size_t>(hw + 3));
    std::vector<int64_t> joined(static_cast<size_t>(hw + 3), 0);
    pool.parallel_for(
        1, n,
        [&](int64_t lo, int64_t hi, int idx) {
          chunk_seen[static_cast<size_t>(idx)]++;
          for (int64_t i = lo; i <= hi; ++i) hits[static_cast<size_t>(i)]++;
          return hi - lo + 1;
        },
        [&](int k, int64_t len) { joined[static_cast<size_t>(k)] += len; });
    const int64_t chunks = std::min<int64_t>(n, pool.size());
    for (int64_t k = 0; k < pool.size(); ++k)
      ASSERT_EQ(chunk_seen[static_cast<size_t>(k)].load(), k < chunks ? 1 : 0);
    for (int64_t i = 1; i <= n; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "round " << round;
    ASSERT_EQ(std::accumulate(joined.begin(), joined.end(), int64_t{0}), n);
    std::atomic<int64_t> sum{0};
    pool.for_each_index(50, [&](int64_t i, int) { sum += i; });
    ASSERT_EQ(sum.load(), 50 * 49 / 2);
    if (round % 100 == 0) let_workers_park();
  }
}

TEST(ThreadPool, ChunkKStaysOnLaneKWhileLanesSpin) {
  // With spinning lanes, chunk k runs on pool lane k, so a lane's state
  // stays in one core's cache. Only the caller may stand in for a lane
  // that was descheduled (say by another process) when a region began;
  // chunk k never moves to another lane's thread.
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "lanes spin only when they fit in the host's cores";
  constexpr int kLanes = 4, kRegions = 10000;
  ThreadPool pool(kLanes);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(static_cast<size_t>(kLanes));
  std::vector<std::vector<std::thread::id>> seen(kLanes);
  std::vector<int> on_lane(kLanes, 0);
  for (int region = 0; region < kRegions; ++region) {
    pool.parallel_for(1, 12, [&](int64_t, int64_t, int k) {
      ran[static_cast<size_t>(k)] = std::this_thread::get_id();
    });
    for (int k = 0; k < kLanes; ++k) {
      std::thread::id t = ran[static_cast<size_t>(k)];
      if (t == caller) continue;
      ++on_lane[static_cast<size_t>(k)];
      auto& ids = seen[static_cast<size_t>(k)];
      if (std::find(ids.begin(), ids.end(), t) == ids.end()) ids.push_back(t);
    }
  }
  EXPECT_EQ(on_lane[0], 0) << "chunk 0 runs on the caller";
  std::vector<std::thread::id> lanes;
  for (int k = 1; k < kLanes; ++k) {
    const auto& ids = seen[static_cast<size_t>(k)];
    ASSERT_EQ(ids.size(), 1u) << "chunk " << k << " ran on " << ids.size()
                              << " lane threads";
    EXPECT_EQ(std::count(lanes.begin(), lanes.end(), ids[0]), 0)
        << "chunks share a lane";
    lanes.push_back(ids[0]);
    EXPECT_GT(on_lane[static_cast<size_t>(k)], 0);
  }
}

TEST(ThreadPool, LaneExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  for (int thrower = 1; thrower < 4; ++thrower) {
    for (int round = 0; round < 200; ++round) {
      std::vector<int> joined;
      std::atomic<int> ran{0};
      EXPECT_THROW(
          pool.parallel_for(
              1, 40,
              [&](int64_t lo, int64_t, int k) {
                ran++;
                if (k == thrower) throw std::runtime_error("lane");
                return lo;
              },
              [&](int k, int64_t) { joined.push_back(k); }),
          std::runtime_error);
      // Every chunk ran, and every chunk but the thrower's was joined.
      ASSERT_EQ(ran.load(), 4);
      std::vector<int> expect;
      for (int k = 0; k < 4; ++k)
        if (k != thrower) expect.push_back(k);
      ASSERT_EQ(joined, expect);
      if (round % 50 == 0) let_workers_park();
    }
    expect_each_iteration_once(pool, 100);
  }
}

TEST(ThreadPool, ChunkReportsComeBackInChunkOrder) {
  // Each chunk's report travels on its lane's completion line; the caller
  // joins them in chunk order, so per-chunk partials combine in the same
  // order at every lane count.
  for (int lanes : {2, 3, 4}) {
    ThreadPool pool(lanes);
    struct Report {
      int64_t lo, hi;
      double sum;
    };
    for (int64_t n : {2, 3, 7, 12, 30}) {
      std::vector<Report> got;
      pool.parallel_for(
          1, n,
          [](int64_t lo, int64_t hi, int) {
            double s = 0;
            for (int64_t i = lo; i <= hi; ++i) s += static_cast<double>(i);
            return Report{lo, hi, s};
          },
          [&](int k, const Report& r) {
            EXPECT_EQ(k, static_cast<int>(got.size()));
            got.push_back(r);
          });
      ASSERT_EQ(static_cast<int64_t>(got.size()), std::min<int64_t>(lanes, n));
      int64_t expect = 1;
      double total = 0;
      for (const Report& r : got) {
        EXPECT_EQ(r.lo, expect);
        expect = r.hi + 1;
        total += r.sum;
      }
      EXPECT_EQ(expect, n + 1);
      EXPECT_EQ(total, static_cast<double>(n * (n + 1) / 2));
    }
  }
}

TEST(ThreadPool, LargeClosureTravelsByPointer) {
  // A callable too big for the job line is reached through a pointer; it
  // must behave exactly like an inline one.
  ThreadPool pool(4);
  std::array<int64_t, 8> offsets{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::atomic<int64_t>> sums(4);
  auto big = [offsets, &sums](int64_t lo, int64_t hi, int k) {
    for (int64_t i = lo; i <= hi; ++i)
      sums[static_cast<size_t>(k)] += i + offsets[static_cast<size_t>(k)];
  };
  static_assert(!ThreadPool::carries_inline<decltype(big)>);
  for (int round = 0; round < 100; ++round) {
    for (auto& s : sums) s = 0;
    pool.parallel_for(1, 8, big);
    // Chunks of two iterations: k covers 2k+1 and 2k+2.
    for (int k = 0; k < 4; ++k)
      ASSERT_EQ(sums[static_cast<size_t>(k)].load(),
                (2 * k + 1) + (2 * k + 2) + 2 * offsets[static_cast<size_t>(k)]);
  }
}

TEST(ThreadPool, ForEachIndexPastTheLanesCoversEveryItem) {
  // Items below size() belong to their lanes; the rest are claimed
  // dynamically. Either way each runs exactly once, spinning or parked.
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int lanes : {2, 4, hw + 2}) {
    ThreadPool pool(lanes);
    for (int round = 0; round < 1000; ++round) {
      const int64_t count = lanes + 1 + round % (4 * lanes);
      std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
      pool.for_each_index(count, [&](int64_t i, int lane) {
        EXPECT_EQ(lane, static_cast<int>(i));
        hits[static_cast<size_t>(i)]++;
      });
      for (int64_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << lanes << " lanes, round " << round;
      if (round % 250 == 0) let_workers_park();
    }
  }
}

}  // namespace
}  // namespace ap::interp

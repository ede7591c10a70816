// Tests for the compilation service: content-addressed cache keys,
// result serialization, LRU eviction, the on-disk tier, scheduler
// determinism (concurrent 12×3 matrix == sequential runs), and the
// PipelineTimings satellite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include "incr/unit_cache.h"
#include "service/scheduler.h"
#include "support/disk_budget.h"
#include "suite/suite.h"
#include "tests/test_util.h"

namespace ap {
namespace {

namespace fs = std::filesystem;

// A tiny single-loop app: fast to compile, enough to exercise the cache.
suite::BenchmarkApp tiny_app(const std::string& name,
                             const std::string& extra_stmt = "") {
  suite::BenchmarkApp app;
  app.name = name;
  app.description = "synthetic cache-test app";
  app.source = "      PROGRAM TINY\n"
               "      REAL A(100)\n"
               "      INTEGER I\n"
               "      DO 10 I = 1, 100\n"
               "        A(I) = I * 2.0\n" +
               (extra_stmt.empty() ? std::string()
                                   : "        " + extra_stmt + "\n") +
               "   10 CONTINUE\n"
               "      END\n";
  return app;
}

service::CompileJob tiny_job(const std::string& name = "TINY") {
  service::CompileJob j;
  j.app = tiny_app(name);
  j.opts = driver::PipelineOptions{};
  return j;
}

// A unique per-test temp directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ap_service_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(CacheKey, StableForIdenticalInputs) {
  auto j = tiny_job();
  uint64_t k1 = service::cache_key(j.app.source, j.app.annotations, j.opts);
  uint64_t k2 = service::cache_key(j.app.source, j.app.annotations, j.opts);
  EXPECT_EQ(k1, k2);
}

TEST(CacheKey, ChangesWithSourceAnnotationsAndEveryOptionGroup) {
  auto j = tiny_job();
  uint64_t base = service::cache_key(j.app.source, j.app.annotations, j.opts);

  EXPECT_NE(base, service::cache_key(j.app.source + " ", j.app.annotations,
                                     j.opts));
  EXPECT_NE(base, service::cache_key(j.app.source, "inline fsmp always",
                                     j.opts));

  auto o = j.opts;
  o.config = driver::InlineConfig::Annotation;
  EXPECT_NE(base, service::cache_key(j.app.source, j.app.annotations, o));
  o = j.opts;
  o.par.min_trip = 99;
  EXPECT_NE(base, service::cache_key(j.app.source, j.app.annotations, o));
  o = j.opts;
  o.conv.max_stmts = 1;
  EXPECT_NE(base, service::cache_key(j.app.source, j.app.annotations, o));
  o = j.opts;
  o.annot.require_in_loop = false;
  EXPECT_NE(base, service::cache_key(j.app.source, j.app.annotations, o));
  o = j.opts;
  o.reverse.fallback_to_hints = false;
  EXPECT_NE(base, service::cache_key(j.app.source, j.app.annotations, o));
}

TEST(CacheSerialization, RoundTripPreservesResult) {
  auto j = tiny_job();
  auto r = service::to_compile_result(driver::run_pipeline(j.app, j.opts));
  ASSERT_TRUE(r.ok);
  ASSERT_FALSE(r.program_text.empty());

  auto back = service::deserialize_result(service::serialize_result(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ok, r.ok);
  EXPECT_EQ(back->parallel_loops, r.parallel_loops);
  EXPECT_EQ(back->code_lines, r.code_lines);
  EXPECT_EQ(back->dep_tests, r.dep_tests);
  EXPECT_EQ(back->dep_tests_unique, r.dep_tests_unique);
  EXPECT_EQ(back->program_text, r.program_text);
}

TEST(CacheSerialization, RejectsGarbageAndWrongVersion) {
  EXPECT_FALSE(service::deserialize_result("").has_value());
  EXPECT_FALSE(service::deserialize_result("not a cache entry").has_value());
  EXPECT_FALSE(service::deserialize_result("APCACHE 999\nok 1\n").has_value());
}

TEST(ResultCache, HitOnIdenticalSourceAndOptions) {
  service::ResultCache cache(8);
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);

  auto j = tiny_job();
  auto first = sched.run_one(j);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);

  auto second = sched.run_one(j);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.parallel_loops, first.parallel_loops);
  EXPECT_EQ(second.program_text, first.program_text);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, MissOnChangedOptions) {
  service::ResultCache cache(8);
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);

  auto j = tiny_job();
  sched.run_one(j);
  j.opts.par.min_trip = 500;  // trips the profitability threshold
  auto r = sched.run_one(j);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.stats().memory_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  // And the semantic outcome really differs: the loop is no longer
  // profitable, so nothing is parallelized.
  EXPECT_TRUE(r.parallel_loops.empty());
}

TEST(ResultCache, LruEvictionAtCapacity) {
  service::ResultCache cache(2);
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);

  auto a = tiny_job("A"), b = tiny_job("B"), c = tiny_job("C");
  // Distinct sources => distinct keys.
  b.app.source += "*\n";
  c.app.source += "**\n";

  sched.run_one(a);
  sched.run_one(b);
  EXPECT_EQ(cache.memory_entries(), 2u);

  // Touch A so B becomes least-recently-used, then insert C.
  EXPECT_TRUE(sched.run_one(a).cache_hit);
  sched.run_one(c);
  EXPECT_EQ(cache.memory_entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  EXPECT_TRUE(sched.run_one(a).cache_hit);   // survived
  EXPECT_TRUE(sched.run_one(c).cache_hit);   // just inserted
  EXPECT_FALSE(sched.run_one(b).cache_hit);  // evicted
}

TEST(ResultCache, DiskTierRoundTrip) {
  TempDir dir("disk");
  auto j = tiny_job();
  service::CompileResult original;
  {
    service::ResultCache cache(8, dir.path.string());
    service::Scheduler::Options so;
    so.cache = &cache;
    service::Scheduler sched(so);
    original = sched.run_one(j);
    ASSERT_TRUE(original.ok);
  }
  // A fresh cache instance (empty memory tier) over the same directory
  // serves the entry from disk and promotes it.
  service::ResultCache cache(8, dir.path.string());
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);
  auto warm = sched.run_one(j);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(warm.parallel_loops, original.parallel_loops);
  EXPECT_EQ(warm.code_lines, original.code_lines);
  EXPECT_EQ(warm.program_text, original.program_text);
  // Promoted: the next lookup is a memory hit.
  EXPECT_TRUE(sched.run_one(j).cache_hit);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(ResultCache, DiskBudgetEvictsOldestEntries) {
  TempDir dir("budget");
  // Budget sized to hold roughly two serialized tiny-app entries: storing
  // a third must evict the oldest file.
  auto a = tiny_job("A"), b = tiny_job("B"), c = tiny_job("C");
  b.app.source += "*\n";
  c.app.source += "**\n";

  size_t one_entry;
  {
    service::ResultCache probe(8, (dir.path / "probe").string());
    service::Scheduler::Options so;
    so.cache = &probe;
    service::Scheduler(so).run_one(a);
    one_entry = probe.stats().disk_bytes;
    ASSERT_GT(one_entry, 0u);
  }

  service::ResultCache cache(8, (dir.path / "capped").string(),
                             /*disk_max_bytes=*/one_entry * 2 + one_entry / 2);
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);
  sched.run_one(a);
  // Distinct mtimes so "oldest" is well defined at filesystem resolution.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sched.run_one(b);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sched.run_one(c);

  auto stats = cache.stats();
  EXPECT_EQ(stats.disk_evictions, 1u);
  EXPECT_LE(stats.disk_bytes, one_entry * 2 + one_entry / 2);

  // A fresh cache over the directory confirms which entries survived on
  // disk: the oldest (A) is gone, B and C remain.
  service::ResultCache fresh(8, (dir.path / "capped").string());
  service::Scheduler::Options fo;
  fo.cache = &fresh;
  service::Scheduler fsched(fo);
  EXPECT_FALSE(fsched.run_one(a).cache_hit);
  EXPECT_TRUE(fsched.run_one(b).cache_hit);
  EXPECT_TRUE(fsched.run_one(c).cache_hit);
}

TEST(ResultCache, DiskBudgetCountsPreexistingFiles) {
  TempDir dir("preexist");
  auto j = tiny_job();
  {
    service::ResultCache cache(8, dir.path.string());
    service::Scheduler::Options so;
    so.cache = &cache;
    service::Scheduler(so).run_one(j);
  }
  // A new instance over the same directory starts with the tier's real
  // size, not zero.
  service::ResultCache cache(8, dir.path.string());
  EXPECT_GT(cache.stats().disk_bytes, 0u);
}

TEST(ResultCache, UnlimitedBudgetNeverEvicts) {
  TempDir dir("unlimited");
  service::ResultCache cache(8, dir.path.string());  // disk_max_bytes = 0
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);
  for (int i = 0; i < 6; ++i) {
    auto j = tiny_job("APP" + std::to_string(i));
    j.app.source += std::string(static_cast<size_t>(i) + 1, '*') + "\n";
    sched.run_one(j);
  }
  EXPECT_EQ(cache.stats().disk_evictions, 0u);
  EXPECT_EQ(cache.stats().stores, 6u);
}

TEST(ResultCache, FailedCompilationsAreNotCached) {
  service::ResultCache cache(8);
  service::Scheduler::Options so;
  so.cache = &cache;
  service::Scheduler sched(so);

  service::CompileJob bad;
  bad.app.name = "BAD";
  bad.app.source = "      THIS IS NOT FORTRAN(\n";
  auto r1 = sched.run_one(bad);
  EXPECT_FALSE(r1.ok);
  auto r2 = sched.run_one(bad);
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(cache.stats().stores, 0u);
}

// The acceptance criterion: a concurrent run of the full 12×3 matrix is
// verdict-for-verdict identical to sequential pipeline runs.
TEST(Scheduler, ConcurrentMatrixMatchesSequential) {
  unsigned hw = std::thread::hardware_concurrency();
  service::ResultCache cache(128);
  service::Telemetry telemetry;
  service::Scheduler::Options so;
  so.threads = hw ? static_cast<int>(hw) : 4;
  so.cache = &cache;
  so.telemetry = &telemetry;
  service::Scheduler sched(so);

  auto jobs = service::suite_matrix();
  ASSERT_EQ(jobs.size(), suite::perfect_suite().size() * 3);
  auto concurrent = sched.run_batch(jobs);
  ASSERT_EQ(concurrent.size(), jobs.size());

  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].app.name + "/" +
                 driver::config_name(jobs[i].opts.config));
    auto seq =
        service::to_compile_result(driver::run_pipeline(jobs[i].app,
                                                        jobs[i].opts));
    ASSERT_TRUE(concurrent[i].ok);
    EXPECT_EQ(concurrent[i].parallel_loops, seq.parallel_loops);
    EXPECT_EQ(concurrent[i].code_lines, seq.code_lines);
    EXPECT_EQ(concurrent[i].program_text, seq.program_text);
  }

  // A second batch over the same matrix is served entirely from cache and
  // still deterministic.
  service::Telemetry telemetry2;
  service::Scheduler::Options so2 = so;
  so2.telemetry = &telemetry2;
  service::Scheduler sched2(so2);
  auto warm = sched2.run_batch(jobs);
  EXPECT_EQ(telemetry2.cache_hits(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(warm[i].cache_hit);
    EXPECT_EQ(warm[i].parallel_loops, concurrent[i].parallel_loops);
  }
}

TEST(Telemetry, JsonReportIsWellFormedAndComplete) {
  service::ResultCache cache(128);
  service::Telemetry telemetry;
  service::Scheduler::Options so;
  so.threads = 2;
  so.cache = &cache;
  so.telemetry = &telemetry;
  service::Scheduler sched(so);

  std::vector<service::CompileJob> jobs = {tiny_job("T1"), tiny_job("T2")};
  jobs[1].app.source += "*\n";
  sched.run_batch(jobs);

  std::string json = telemetry.to_json();
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"passes_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"T1\""), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"T2\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Telemetry, JsonEscaping) {
  EXPECT_EQ(service::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(service::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
}

// Satellite: per-pass PipelineTimings populated for all three configurations.
TEST(PipelineTimings, PopulatedForEveryConfig) {
  const auto* app = suite::find_app("DYFESM");
  ASSERT_NE(app, nullptr);
  for (auto cfg :
       {driver::InlineConfig::None, driver::InlineConfig::Conventional,
        driver::InlineConfig::Annotation}) {
    driver::PipelineOptions o;
    o.config = cfg;
    auto r = driver::run_pipeline(*app, o);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.timings.pass_ms("parse"), 0) << driver::config_name(cfg);
    EXPECT_GT(r.timings.pass_ms("parallelize"), 0)
        << driver::config_name(cfg);
    EXPECT_GE(r.timings.total_ms, r.timings.pass_ms("parse") +
                                      r.timings.pass_ms("parallelize"))
        << driver::config_name(cfg);
    // Pass presence follows the configuration: inline passes only appear
    // in the sequences that perform inlining, reverse-inline only in the
    // annotation sequence.
    EXPECT_EQ(r.timings.find("conv-inline") != nullptr,
              cfg == driver::InlineConfig::Conventional)
        << driver::config_name(cfg);
    EXPECT_EQ(r.timings.find("annot-inline") != nullptr,
              cfg == driver::InlineConfig::Annotation)
        << driver::config_name(cfg);
    EXPECT_EQ(r.timings.find("reverse-inline") != nullptr,
              cfg == driver::InlineConfig::Annotation)
        << driver::config_name(cfg);
    // Every record carries the pass name and unit count; per-unit passes
    // report one entry per program unit.
    const auto* par = r.timings.find("parallelize");
    ASSERT_NE(par, nullptr);
    EXPECT_EQ(par->units, static_cast<int>(r.program->units.size()));
    EXPECT_GT(r.par.dep_tests, 0u) << driver::config_name(cfg);
    // Memoized dependence testing: every logical test maps to at most one
    // executed test, and at least one pair is actually tested.
    EXPECT_GT(r.par.dep_tests_unique, 0u) << driver::config_name(cfg);
    EXPECT_LE(r.par.dep_tests_unique, r.par.dep_tests)
        << driver::config_name(cfg);
  }
}

// Satellite: the shared pool's dynamic entry point.
TEST(SupportThreadPool, ForEachIndexRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  pool.for_each_index(100, [&](int64_t i, int) {
    counts[static_cast<size_t>(i)]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(SupportThreadPool, ForEachIndexPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(50,
                                   [&](int64_t i, int) {
                                     if (i == 23)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

// Satellite: two cache instances sharing one directory under a tight byte
// budget, with concurrent store/find traffic. The atomic temp-file+rename
// publish must guarantee that a reader either misses or deserializes a
// complete entry — never a torn one — and the accounting stays sane while
// the budget forces continuous eviction.
TEST(ResultCache, ConcurrentSharedDirFillAndEvict) {
  TempDir dir("race");
  // One real compile provides the payload; distinct keys simulate many.
  service::CompileResult payload;
  {
    service::ResultCache seed(8);
    service::Scheduler::Options so;
    so.cache = &seed;
    payload = service::Scheduler(so).run_one(tiny_job());
    ASSERT_TRUE(payload.ok);
  }
  const size_t entry_bytes = service::serialize_result(payload).size();
  // Room for ~4 entries while 64 keys circulate: eviction runs constantly.
  const size_t budget = entry_bytes * 4 + entry_bytes / 2;

  service::ResultCache a(4, dir.path.string(), budget);
  service::ResultCache b(4, dir.path.string(), budget);
  std::atomic<int> torn{0};
  std::atomic<int> found{0};
  auto hammer = [&](service::ResultCache* mine,
                    service::ResultCache* theirs, uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 200; ++i) {
      uint64_t key = 1 + rng() % 64;
      mine->store(key, payload);
      if (auto hit = theirs->find(1 + rng() % 64)) {
        ++found;
        // A torn read would truncate the text or fail field checks.
        if (hit->program_text != payload.program_text ||
            hit->code_lines != payload.code_lines)
          ++torn;
      }
    }
  };
  std::thread t1(hammer, &a, &b, 101);
  std::thread t2(hammer, &b, &a, 202);
  std::thread t3(hammer, &a, &b, 303);
  std::thread t4(hammer, &b, &a, 404);
  t1.join();
  t2.join();
  t3.join();
  t4.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(found.load(), 0);
  auto sa = a.stats();
  auto sb = b.stats();
  // Budget enforcement really ran, and accounting never went negative
  // (disk_bytes is unsigned: underflow would read as an enormous value).
  EXPECT_GT(sa.disk_evictions + sb.disk_evictions, 0u);
  EXPECT_LE(sa.disk_bytes, budget + entry_bytes);
  EXPECT_LE(sb.disk_bytes, budget + entry_bytes);
  // No temp files left behind by the atomic publishes.
  size_t tmp_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path))
    if (e.path().filename().string().find(".tmp") != std::string::npos)
      ++tmp_files;
  EXPECT_EQ(tmp_files, 0u);
}

// A writer that crashed mid-store leaves its temp file behind. The next
// instance that registers the directory removes it once it is older than
// any live store could be, and leaves a fresh one (a live writer's) alone.
TEST(ResultCache, RegisteringTheDiskTierSweepsOrphanedTempFiles) {
  TempDir dir("orphans");
  fs::create_directories(dir.path);
  auto touch = [&](const std::string& name) {
    std::FILE* f = std::fopen((dir.path / name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("partial", f);
    std::fclose(f);
  };
  touch("00000000000000aa.apc.tmp.999.0");
  touch("00000000000000bb.apc.tmp.999.1");
  fs::last_write_time(dir.path / "00000000000000aa.apc.tmp.999.0",
                      fs::file_time_type::clock::now() -
                          support::kOrphanTempAge - std::chrono::minutes(1));
  service::ResultCache cache(8, dir.path.string());
  EXPECT_FALSE(fs::exists(dir.path / "00000000000000aa.apc.tmp.999.0"));
  EXPECT_TRUE(fs::exists(dir.path / "00000000000000bb.apc.tmp.999.1"));
  EXPECT_EQ(cache.stats().disk_bytes, 0u);  // temp files are not entries
}

// Two writers sharing a directory store the same keys over and over
// (fleet workers replicating to each other do exactly this) while a third
// instance only reads. Each writer publishes through its own temp file,
// so the reader always finds a complete entry equal to what was stored.
TEST(ResultCache, SharedDirWritersNeverPublishATornEntry) {
  TempDir dir("publish");
  service::CompileResult payload;
  {
    service::ResultCache seed(8);
    service::Scheduler::Options so;
    so.cache = &seed;
    payload = service::Scheduler(so).run_one(tiny_job());
    ASSERT_TRUE(payload.ok);
  }
  // Large enough that one store takes many write calls.
  while (payload.program_text.size() < 64 * 1024)
    payload.program_text += payload.program_text;
  constexpr uint64_t kKeys[] = {1, 2};

  service::ResultCache a(4, dir.path.string());
  service::ResultCache b(4, dir.path.string());
  // Capacity 1 over two keys: every read of the other key goes to disk.
  service::ResultCache reader(1, dir.path.string());
  for (uint64_t key : kKeys) a.store(key, payload);

  std::atomic<int> writers_left{2};
  auto write = [&](service::ResultCache* cache) {
    for (int i = 0; i < 200; ++i)
      for (uint64_t key : kKeys) cache->store(key, payload);
    --writers_left;
  };
  std::thread wa(write, &a);
  std::thread wb(write, &b);
  int reads = 0, bad = 0;
  while (writers_left.load() > 0) {
    for (uint64_t key : kKeys) {
      auto hit = reader.find(key);
      ++reads;
      if (!hit || hit->program_text != payload.program_text ||
          hit->code_lines != payload.code_lines ||
          hit->parallel_loops != payload.parallel_loops)
        ++bad;
    }
  }
  wa.join();
  wb.join();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(bad, 0) << "of " << reads << " reads";
  EXPECT_EQ(reader.stats().memory_hits, 0u);  // every read went to disk
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".apc") << e.path();
  }
  EXPECT_EQ(files, 2u);
}

// Satellite: the telemetry summary splits cache hits by tier.
TEST(Telemetry, SummarySplitsHitsByTier) {
  TempDir dir("tiers");
  auto j = tiny_job();
  {
    service::ResultCache cache(8, dir.path.string());
    service::Scheduler::Options so;
    so.cache = &cache;
    service::Scheduler(so).run_one(j);
  }
  service::ResultCache cache(8, dir.path.string());
  service::Telemetry telemetry;
  service::Scheduler::Options so;
  so.cache = &cache;
  so.telemetry = &telemetry;
  service::Scheduler sched(so);
  sched.run_batch({j});  // disk hit
  sched.run_batch({j});  // memory hit (promoted)
  telemetry.record_cache_stats(cache.stats());

  std::string json = telemetry.to_json();
  EXPECT_NE(json.find("\"cache_hits\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits_memory\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits_disk\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits_peer\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits_unit\": 0"), std::string::npos) << json;
}

// Scheduler + unit tier: a request-level miss consults the unit cache; a
// request-level hit reports zero unit activity; the incr stats land in the
// telemetry JSON.
TEST(Scheduler, UnitTierComposesUnderRequestCache) {
  incr::UnitCache units(256);
  service::ResultCache cache(8);
  service::Telemetry telemetry;
  service::Scheduler::Options so;
  so.cache = &cache;
  so.telemetry = &telemetry;
  so.unit_cache = &units;
  service::Scheduler sched(so);

  auto j = tiny_job();
  auto cold = sched.run_one(j);
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.unit_hits, 0u);
  EXPECT_GT(cold.unit_misses, 0u);

  // Request-level hit: the pipeline never runs, so no unit lookups.
  auto warm = sched.run_one(j);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.unit_hits, 0u);
  EXPECT_EQ(warm.unit_misses, 0u);

  // A textual variant misses the request cache but reuses every unit
  // whose dependence closure is unchanged (the tiny app has one unit, and
  // the comment edit does not change its fingerprint).
  auto k = j;
  k.app.source = "C edited comment\n" + k.app.source;
  auto incr_hit = sched.run_one(k);
  ASSERT_TRUE(incr_hit.ok);
  EXPECT_FALSE(incr_hit.cache_hit);
  EXPECT_GT(incr_hit.unit_hits, 0u);
  EXPECT_EQ(incr_hit.unit_misses, 0u);
  EXPECT_EQ(incr_hit.program_text, cold.program_text);

  sched.run_batch({j, k});
  telemetry.record_incr_stats(units.stats());
  std::string json = telemetry.to_json();
  EXPECT_NE(json.find("\"incr\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"invalidated_by_dep\""), std::string::npos) << json;
}

// Satellite: unit-snapshot files are charged to the SAME --cache-max-mb
// byte budget as whole-request results — one support::DiskBudget spanning
// `<dir>/*.apc` and `<dir>/units/*.apu`. Under concurrent store traffic
// from both tiers the combined footprint must respect the cap, each tier
// must be able to evict the other's files, the accounting must never tear
// (unsigned underflow would read as an enormous used_bytes), and every
// readable payload must come back complete.
TEST(ResultCache, SharedBudgetSpansResultAndUnitTiers) {
  TempDir dir("sharedbudget");
  service::CompileResult payload;
  {
    service::ResultCache seed(8);
    service::Scheduler::Options so;
    so.cache = &seed;
    payload = service::Scheduler(so).run_one(tiny_job());
    ASSERT_TRUE(payload.ok);
  }
  const size_t entry_bytes = service::serialize_result(payload).size();
  std::string unit_payload = "APUNIT 2\n";
  unit_payload.append(entry_bytes, 'u');
  const size_t cap = entry_bytes * 6;

  support::DiskBudget budget(cap);
  service::ResultCache results(4, dir.path.string(), 0, &budget);
  incr::UnitCache units(4, dir.path.string() + "/units", &budget);

  std::atomic<int> torn{0};
  std::atomic<int> found{0};
  auto result_hammer = [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 150; ++i) {
      results.store(1 + rng() % 32, payload);
      if (auto hit = results.find(1 + rng() % 32)) {
        ++found;
        if (hit->program_text != payload.program_text) ++torn;
      }
    }
  };
  auto unit_hammer = [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 150; ++i) {
      uint64_t key = 1000 + rng() % 32;
      units.store("parallelize", key, key, unit_payload);
      auto r = units.find("parallelize", 1000 + rng() % 32, 0);
      if (r.payload.has_value()) {
        ++found;
        if (*r.payload != unit_payload) ++torn;
      }
    }
  };
  std::thread t1(result_hammer, 11);
  std::thread t2(unit_hammer, 22);
  std::thread t3(result_hammer, 33);
  std::thread t4(unit_hammer, 44);
  t1.join();
  t2.join();
  t3.join();
  t4.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(found.load(), 0);
  // The cap held across BOTH directories (one in-flight entry of slack:
  // the file whose store triggered eviction is itself exempt).
  const size_t slack = std::max(entry_bytes, unit_payload.size());
  EXPECT_LE(budget.used_bytes(), cap + slack);
  EXPECT_EQ(budget.used_bytes(),
            budget.dir_bytes(dir.path.string()) +
                budget.dir_bytes(dir.path.string() + "/units"));
  // Cross-tier pressure was real: files were evicted from both tiers.
  EXPECT_GT(budget.dir_evictions(dir.path.string()), 0u);
  EXPECT_GT(budget.dir_evictions(dir.path.string() + "/units"), 0u);
  // The on-disk truth agrees with the accounting.
  size_t on_disk = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path))
    if (e.is_regular_file()) on_disk += fs::file_size(e.path());
  EXPECT_EQ(on_disk, budget.used_bytes());
}

}  // namespace
}  // namespace ap

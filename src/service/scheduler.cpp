#include "service/scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace ap::service {

std::vector<CompileJob> suite_matrix(const driver::PipelineOptions& base) {
  std::vector<CompileJob> jobs;
  for (const auto& app : suite::perfect_suite()) {
    for (auto cfg :
         {driver::InlineConfig::None, driver::InlineConfig::Conventional,
          driver::InlineConfig::Annotation}) {
      CompileJob j;
      j.app = app;
      j.opts = base;
      j.opts.config = cfg;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::string table2_summary(const std::vector<CompileJob>& jobs,
                           const std::vector<CompileResult>& results) {
  std::string out;
  char line[256];
  auto emit = [&](auto... args) {
    std::snprintf(line, sizeof(line), args...);
    out += line;
  };
  emit("%-8s | %-14s | %-24s | %-24s\n", "", "no-inlining",
       "conventional inlining", "annotation-based inlining");
  emit("%-8s | %5s %8s | %5s %5s %6s %8s | %5s %5s %6s %8s\n", "App", "#par",
       "lines", "#par", "-loss", "+extra", "lines", "#par", "-loss", "+extra",
       "lines");
  for (size_t i = 0; i + 2 < results.size(); i += 3) {
    const auto& none = results[i];
    const auto& conv = results[i + 1];
    const auto& annot = results[i + 2];
    int loss_conv = 0, extra_conv = 0, loss_annot = 0, extra_annot = 0;
    for (int64_t id : none.parallel_loops) {
      if (!conv.parallel_loops.count(id)) ++loss_conv;
      if (!annot.parallel_loops.count(id)) ++loss_annot;
    }
    for (int64_t id : conv.parallel_loops)
      if (!none.parallel_loops.count(id)) ++extra_conv;
    for (int64_t id : annot.parallel_loops)
      if (!none.parallel_loops.count(id)) ++extra_annot;
    emit("%-8s | %5zu %8zu | %5zu %5d %6d %8zu | %5zu %5d %6d %8zu\n",
         jobs[i].app.name.c_str(), none.parallel_loops.size(), none.code_lines,
         conv.parallel_loops.size(), loss_conv, extra_conv, conv.code_lines,
         annot.parallel_loops.size(), loss_annot, extra_annot,
         annot.code_lines);
  }
  return out;
}

driver::Table2Row evaluate_table2_row(const suite::BenchmarkApp& app,
                                      const driver::PipelineOptions& base,
                                      Scheduler& sched) {
  std::vector<CompileJob> jobs;
  for (auto cfg :
       {driver::InlineConfig::None, driver::InlineConfig::Conventional,
        driver::InlineConfig::Annotation}) {
    CompileJob j;
    j.app = app;
    j.opts = base;
    j.opts.config = cfg;
    jobs.push_back(std::move(j));
  }
  std::vector<CompileResult> results = sched.run_batch(jobs);
  return driver::make_table2_row(
      app.name, results[0].parallel_loops, results[0].code_lines,
      results[1].parallel_loops, results[1].code_lines,
      results[2].parallel_loops, results[2].code_lines);
}

Scheduler::Scheduler(const Options& opts)
    : opts_(opts), pool_(opts.threads < 1 ? 1 : opts.threads) {}

CompileResult Scheduler::run_one(const CompileJob& job, obs::Span* parent,
                                 uint64_t trace_id) {
  using clock = std::chrono::steady_clock;
  auto span_ms = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  uint64_t key = cache_key(job.app.source, job.app.annotations, job.opts);
  if (opts_.cache) {
    auto t0 = clock::now();
    // Memory tier first so the trace can name the serving tier; a
    // find_memory hit counts memory_hits, a miss is unaccounted and the
    // full find() owns the disk-or-miss outcome — exactly one accounting
    // per lookup, same as a single find().
    const char* tier = "memory_hit";
    auto hit = opts_.cache->find_memory(key);
    if (!hit) {
      hit = opts_.cache->find(key);
      tier = hit ? "disk_hit" : "miss";
    }
    if (parent)
      parent->children.push_back({"cache", tier, span_ms(t0), {}});
    if (hit) {
      hit->cache_hit = true;
      // A whole-request hit did no unit-granular work in THIS request;
      // the memory tier may carry the compiling run's counters.
      hit->unit_hits = hit->unit_misses = hit->unit_invalidated = 0;
      return *hit;
    }
  }
  // Local miss: the peer tier may already hold this key (compiled by
  // another worker). A peer result is adopted into the local cache so the
  // next request is a memory hit.
  if (opts_.peer_lookup) {
    auto t0 = clock::now();
    obs::Span peer_span{"peer", "", 0, {}};
    auto peer = opts_.peer_lookup(key, trace_id, parent ? &peer_span : nullptr);
    if (parent) {
      peer_span.detail = peer ? "hit" : "miss";
      peer_span.wall_ms = span_ms(t0);
      parent->children.push_back(std::move(peer_span));
    }
    if (peer) {
      peer->cache_hit = true;
      peer->peer_hit = true;
      peer->unit_hits = peer->unit_misses = peer->unit_invalidated = 0;
      if (opts_.cache) opts_.cache->store(key, *peer);
      return *peer;
    }
  }
  // Request-level miss: compile, consulting the unit tier when attached so
  // only units with a changed dependence closure are re-analyzed.
  driver::PipelineOptions popts = job.opts;
  if (opts_.unit_cache && !popts.unit_cache)
    popts.unit_cache = opts_.unit_cache;
  auto t_compile = clock::now();
  CompileResult r = to_compile_result(driver::run_pipeline(job.app, popts));
  if (parent) {
    obs::Span compile{"compile", "", span_ms(t_compile), {}};
    if (r.unit_hits + r.unit_misses > 0)
      compile.detail = "unit_hits=" + std::to_string(r.unit_hits) +
                       " unit_misses=" + std::to_string(r.unit_misses);
    // One child per pass, straight from the pipeline's PassRecords; a
    // snapshotting boundary's child names its own hit/miss outcome.
    for (const auto& p : r.timings.passes) {
      std::string detail;
      if (p.unit_hits + p.unit_misses > 0)
        detail = "unit_hits=" + std::to_string(p.unit_hits) +
                 " unit_misses=" + std::to_string(p.unit_misses);
      compile.children.push_back(
          {"pass:" + p.name, std::move(detail), p.wall_ms, {}});
    }
    parent->children.push_back(std::move(compile));
  }
  if (opts_.cache) opts_.cache->store(key, r);
  if (r.ok && opts_.on_store) opts_.on_store(key, r, trace_id);
  return r;
}

std::vector<CompileResult> Scheduler::run_batch(
    const std::vector<CompileJob>& jobs) {
  using clock = std::chrono::steady_clock;
  auto t_batch = clock::now();

  std::vector<CompileResult> results(jobs.size());
  std::vector<double> wall_ms(jobs.size(), 0);
  std::atomic<int64_t> started{0};

  pool_.for_each_index(
      static_cast<int64_t>(jobs.size()), [&](int64_t i, int) {
        // Queue depth = jobs not yet picked up by any lane.
        int64_t remaining =
            static_cast<int64_t>(jobs.size()) - (++started);
        if (opts_.telemetry) opts_.telemetry->sample_queue_depth(remaining);
        auto t0 = clock::now();
        results[static_cast<size_t>(i)] = run_one(jobs[static_cast<size_t>(i)]);
        wall_ms[static_cast<size_t>(i)] =
            std::chrono::duration<double, std::milli>(clock::now() - t0)
                .count();
      });

  double batch_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t_batch)
          .count();

  if (opts_.telemetry) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      const auto& r = results[i];
      JobRecord rec;
      rec.app = jobs[i].app.name;
      rec.config = driver::config_name(jobs[i].opts.config);
      rec.ok = r.ok;
      rec.cache_hit = r.cache_hit;
      rec.peer_hit = r.peer_hit;
      rec.wall_ms = wall_ms[i];
      rec.dep_tests = r.dep_tests;
      rec.dep_tests_unique = r.dep_tests_unique;
      rec.parallel_loops = r.parallel_loops.size();
      rec.code_lines = r.code_lines;
      rec.unit_hits = r.unit_hits;
      rec.unit_misses = r.unit_misses;
      rec.unit_invalidated = r.unit_invalidated;
      // A hit's stored timings describe the original compilation, not work
      // done in this batch; report zeros so pass totals stay additive.
      if (!r.cache_hit) rec.timings = r.timings;
      opts_.telemetry->record_job(rec);
    }
    if (opts_.cache) opts_.telemetry->record_cache_stats(opts_.cache->stats());
    if (opts_.unit_cache) {
      opts_.telemetry->record_incr_stats(opts_.unit_cache->stats());
      opts_.telemetry->record_incr_boundary_stats(
          opts_.unit_cache->boundary_stats());
    }
    opts_.telemetry->record_batch_wall_ms(batch_ms);
    opts_.telemetry->record_threads(pool_.size());
  }
  return results;
}

}  // namespace ap::service

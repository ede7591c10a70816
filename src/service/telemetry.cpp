#include "service/telemetry.h"

#include <cstdio>
#include <sstream>

namespace ap::service {

namespace {

std::string fmt_ms(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Render one timings vector as {"<pass>": ms, ..., "pipeline_total": ms}.
std::string passes_json(const driver::PipelineTimings& t) {
  std::string out = "{";
  for (const auto& p : t.passes) {
    out += '"';
    out += json_escape(p.name);
    out += "\": ";
    out += fmt_ms(p.wall_ms);
    out += ", ";
  }
  out += "\"pipeline_total\": ";
  out += fmt_ms(t.total_ms);
  out += '}';
  return out;
}

}  // namespace

void Telemetry::sample_queue_depth(int64_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  ++queue_samples_;
  queue_depth_sum_ += depth;
  if (depth > queue_depth_max_) queue_depth_max_ = depth;
}

void Telemetry::record_job(const JobRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.push_back(rec);
}

void Telemetry::record_exec(const ExecRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  execs_.push_back(rec);
}

void Telemetry::record_cache_stats(const CacheStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_ = stats;
}

void Telemetry::record_incr_stats(const incr::IncrStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  incr_ = stats;
  has_incr_ = true;
}

void Telemetry::record_incr_boundary_stats(
    const std::map<std::string, incr::IncrStats>& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  incr_boundaries_ = stats;
}

void Telemetry::record_server_stats(const ServerStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  server_ = stats;
  has_server_ = true;
}

void Telemetry::record_peer_cache_stats(const PeerCacheStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_cache_ = stats;
  has_peer_cache_ = true;
}

void Telemetry::record_fleet_stats(const FleetStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  fleet_ = stats;
  has_fleet_ = true;
}

void Telemetry::record_batch_wall_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_wall_ms_ = ms;
}

void Telemetry::record_threads(int threads) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_ = threads;
}

size_t Telemetry::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

size_t Telemetry::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& j : jobs_)
    if (j.cache_hit) ++n;
  return n;
}

double Telemetry::unit_hit_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t hits = 0, lookups = 0;
  for (const auto& j : jobs_) {
    hits += j.unit_hits;
    lookups += j.unit_hits + j.unit_misses;
  }
  return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0;
}

double Telemetry::hit_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (jobs_.empty()) return 0;
  size_t n = 0;
  for (const auto& j : jobs_)
    if (j.cache_hit) ++n;
  return static_cast<double>(n) / static_cast<double>(jobs_.size());
}

std::string Telemetry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);

  size_t ok = 0, hits = 0, peer_hits = 0, dep_tests = 0, dep_tests_unique = 0;
  size_t unit_hits = 0, unit_misses = 0, unit_invalidated = 0;
  // Aggregate per-pass wall time by pass name, ordered by first appearance
  // across jobs (job order is deterministic, so the rendering is too).
  driver::PipelineTimings pass{};
  for (const auto& j : jobs_) {
    if (j.ok) ++ok;
    if (j.cache_hit) ++hits;
    if (j.peer_hit) ++peer_hits;
    unit_hits += j.unit_hits;
    unit_misses += j.unit_misses;
    unit_invalidated += j.unit_invalidated;
    dep_tests += j.dep_tests;
    dep_tests_unique += j.dep_tests_unique;
    for (const auto& p : j.timings.passes) {
      pm::PassRecord* agg = nullptr;
      for (auto& a : pass.passes)
        if (a.name == p.name) agg = &a;
      if (!agg) {
        pass.passes.push_back({p.name, 0, 0, 0});
        agg = &pass.passes.back();
      }
      agg->wall_ms += p.wall_ms;
      agg->units += p.units;
      agg->diagnostics += p.diagnostics;
    }
    pass.total_ms += j.timings.total_ms;
  }

  std::ostringstream s;
  s << "{\n";
  // Hit counters split by serving tier: job-level whole-request hits
  // (cache_hits, of which cache_hits_memory/disk come from the local
  // ResultCache counters and cache_hits_peer from the peer tier), plus
  // the unit-granular tier summed over the compiling jobs.
  s << "  \"summary\": {\"jobs\": " << jobs_.size() << ", \"ok\": " << ok
    << ", \"failed\": " << jobs_.size() - ok << ", \"cache_hits\": " << hits
    << ", \"cache_misses\": " << jobs_.size() - hits
    << ", \"cache_hits_memory\": " << cache_.memory_hits
    << ", \"cache_hits_disk\": " << cache_.disk_hits
    << ", \"cache_hits_peer\": " << peer_hits
    << ", \"cache_hits_unit\": " << unit_hits
    << ", \"unit_misses\": " << unit_misses
    << ", \"unit_invalidated\": " << unit_invalidated
    << ", \"threads\": " << threads_
    << ", \"batch_wall_ms\": " << fmt_ms(batch_wall_ms_)
    << ", \"dep_tests\": " << dep_tests
    << ", \"dep_tests_unique\": " << dep_tests_unique << "},\n";
  s << "  \"passes_ms\": " << passes_json(pass) << ",\n";
  s << "  \"cache\": {\"memory_hits\": " << cache_.memory_hits
    << ", \"disk_hits\": " << cache_.disk_hits
    << ", \"misses\": " << cache_.misses << ", \"stores\": " << cache_.stores
    << ", \"evictions\": " << cache_.evictions
    << ", \"disk_evictions\": " << cache_.disk_evictions
    << ", \"disk_bytes\": " << cache_.disk_bytes << "},\n";
  if (has_incr_) {
    s << "  \"incr\": {\"memory_hits\": " << incr_.memory_hits
      << ", \"misses\": " << incr_.misses
      << ", \"invalidated_by_dep\": " << incr_.invalidated_by_dep
      << ", \"stores\": " << incr_.stores
      << ", \"evictions\": " << incr_.evictions;
    if (!incr_boundaries_.empty()) {
      s << ", \"boundaries\": {";
      bool first = true;
      for (const auto& [name, b] : incr_boundaries_) {
        if (!first) s << ", ";
        first = false;
        s << "\"" << json_escape(name) << "\": {\"memory_hits\": "
          << b.memory_hits << ", \"misses\": " << b.misses
          << ", \"invalidated_by_dep\": " << b.invalidated_by_dep
          << ", \"stores\": " << b.stores << "}";
      }
      s << "}";
    }
    s << "},\n";
  }
  if (has_server_) {
    s << "  \"server\": {\"connections\": " << server_.connections
      << ", \"accepted\": " << server_.accepted
      << ", \"completed\": " << server_.completed
      << ", \"rejected_overload\": " << server_.rejected_overload
      << ", \"timed_out\": " << server_.timed_out
      << ", \"protocol_errors\": " << server_.protocol_errors
      << ", \"idle_closed\": " << server_.idle_closed
      << ", \"queue_depth_peak\": " << server_.queue_depth_peak
      << ", \"json_requests\": " << server_.json_requests
      << ", \"binary_requests\": " << server_.binary_requests
      << ", \"pipeline_depth_peak\": " << server_.pipeline_depth_peak
      << ", \"batches\": " << server_.batches
      << ", \"batch_items\": " << server_.batch_items
      << ", \"batch_max\": " << server_.batch_max << "},\n";
  }
  if (has_peer_cache_) {
    s << "  \"peer_cache\": {\"probes_sent\": " << peer_cache_.probes_sent
      << ", \"probe_hits\": " << peer_cache_.probe_hits
      << ", \"fills_sent\": " << peer_cache_.fills_sent
      << ", \"fills_received\": " << peer_cache_.fills_received
      << ", \"peer_hits\": " << peer_cache_.peer_hits
      << ", \"fills_dropped\": " << peer_cache_.fills_dropped << "},\n";
  }
  if (has_fleet_) {
    s << "  \"fleet\": {\"forwarded\": " << fleet_.forwarded
      << ", \"retries\": " << fleet_.retries
      << ", \"failovers\": " << fleet_.failovers
      << ", \"worker_lost\": " << fleet_.worker_lost
      << ", \"workers_joined\": " << fleet_.workers_joined
      << ", \"workers_left\": " << fleet_.workers_left
      << ", \"workers_dead\": " << fleet_.workers_dead
      << ", \"channels_opened\": " << fleet_.channels_opened
      << ", \"channel_reconnects\": " << fleet_.channel_reconnects
      << ", \"channel_inflight_peak\": " << fleet_.channel_inflight_peak
      << ", \"load_steers\": " << fleet_.load_steers << "},\n";
  }
  double queue_mean =
      queue_samples_ ? static_cast<double>(queue_depth_sum_) /
                           static_cast<double>(queue_samples_)
                     : 0;
  s << "  \"queue\": {\"samples\": " << queue_samples_
    << ", \"max_depth\": " << queue_depth_max_
    << ", \"mean_depth\": " << fmt_ms(queue_mean) << "},\n";
  s << "  \"jobs\": [\n";
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const auto& j = jobs_[i];
    s << "    {\"app\": \"" << json_escape(j.app) << "\", \"config\": \""
      << json_escape(j.config) << "\", \"ok\": " << (j.ok ? "true" : "false")
      << ", \"cache_hit\": " << (j.cache_hit ? "true" : "false")
      << ", \"peer_hit\": " << (j.peer_hit ? "true" : "false")
      << ", \"wall_ms\": " << fmt_ms(j.wall_ms)
      << ", \"dep_tests\": " << j.dep_tests
      << ", \"dep_tests_unique\": " << j.dep_tests_unique
      << ", \"parallel_loops\": " << j.parallel_loops
      << ", \"code_lines\": " << j.code_lines
      << ", \"unit_hits\": " << j.unit_hits
      << ", \"unit_misses\": " << j.unit_misses
      << ", \"unit_invalidated\": " << j.unit_invalidated
      << ", \"passes_ms\": " << passes_json(j.timings) << "}"
      << (i + 1 < jobs_.size() ? ",\n" : "\n");
  }
  s << "  ],\n";
  s << "  \"execs\": [\n";
  for (size_t i = 0; i < execs_.size(); ++i) {
    const auto& e = execs_[i];
    s << "    {\"app\": \"" << json_escape(e.app) << "\", \"config\": \""
      << json_escape(e.config) << "\", \"engine\": \"" << json_escape(e.engine)
      << "\", \"threads\": " << e.threads
      << ", \"ok\": " << (e.ok ? "true" : "false")
      << ", \"wall_ms\": " << fmt_ms(e.wall_ms)
      << ", \"bytecode_compile_ms\": " << fmt_ms(e.bytecode_compile_ms)
      << ", \"instructions\": " << e.instructions
      << ", \"statements\": " << e.statements
      << ", \"statements_parallel\": " << e.statements_parallel << "}"
      << (i + 1 < execs_.size() ? ",\n" : "\n");
  }
  s << "  ]\n";
  s << "}\n";
  return s.str();
}

}  // namespace ap::service

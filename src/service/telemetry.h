// Telemetry for the compilation service: per-pass wall time, dependence
// test counts, cache hit/miss/evict counters, and scheduler queue depth,
// rendered as one machine-readable JSON report.
//
// Live recording (queue-depth samples, job wall times) is thread-safe;
// per-job rows are recorded in job-index order after a batch finishes, so
// the report is deterministic regardless of completion order.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "incr/unit_cache.h"
#include "service/cache.h"
#include "support/json.h"

namespace ap::service {

struct JobRecord {
  std::string app;
  std::string config;
  bool ok = false;
  bool cache_hit = false;
  bool peer_hit = false;  // the hit was served by the peer tier
  double wall_ms = 0;  // scheduler-observed job time (hit or miss)
  size_t dep_tests = 0;         // logical pairwise tests
  size_t dep_tests_unique = 0;  // tests actually executed (memoized pass)
  size_t parallel_loops = 0;
  size_t code_lines = 0;
  // Unit-tier outcome of the compiling run (zero on whole-request hits).
  size_t unit_hits = 0;
  size_t unit_misses = 0;
  size_t unit_invalidated = 0;
  driver::PipelineTimings timings;  // of the compiling run (zero on hits)
};

// One interpreter execution of a compiled program (apserve --run): which
// engine ran it, how long bytecode compilation took, and the VM's
// instruction/statement counters.
struct ExecRecord {
  std::string app;
  std::string config;
  std::string engine;  // "tree" or "bytecode"
  int threads = 1;
  bool ok = false;
  double wall_ms = 0;
  double bytecode_compile_ms = 0;  // 0 for the tree engine
  uint64_t instructions = 0;       // 0 for the tree engine
  uint64_t statements = 0;
  uint64_t statements_parallel = 0;
};

// Counters from the network serving layer (src/net): connection and
// request admission outcomes plus the admission-queue high-water mark.
// Recorded by the server when it drains; rendered as the report's
// "server" section.
struct ServerStats {
  uint64_t connections = 0;        // TCP connections accepted
  uint64_t accepted = 0;           // requests admitted to the work queue
  uint64_t completed = 0;          // responses delivered for accepted work
  uint64_t rejected_overload = 0;  // answered `overloaded` (full queue/drain)
  uint64_t timed_out = 0;          // answered `deadline_exceeded`
  uint64_t protocol_errors = 0;    // malformed or oversized frames
  uint64_t idle_closed = 0;        // connections reaped by the idle sweep
  int64_t queue_depth_peak = 0;    // admission-queue high-water mark
  // Serving-path counters.
  uint64_t json_requests = 0;      // frames decoded from the JSON codec
  uint64_t binary_requests = 0;    // frames decoded from the binary codec
  // Largest number of requests in flight on any single connection —
  // the observed pipelining depth.
  int64_t pipeline_depth_peak = 0;
  uint64_t batches = 0;            // compile_batch requests served
  uint64_t batch_items = 0;        // files carried by those batches
  uint64_t batch_max = 0;          // largest single batch
};

// Counters from the distributed cache tier (src/dist worker): peer probes
// issued on local misses, replication fills in both directions, and the
// misses ultimately answered by a peer instead of a recompile.
struct PeerCacheStats {
  uint64_t probes_sent = 0;      // cache_probe requests issued
  uint64_t probe_hits = 0;       // probes answered `found`
  uint64_t fills_sent = 0;       // replications pushed to peers
  uint64_t fills_received = 0;   // replications accepted from peers
  uint64_t peer_hits = 0;        // local misses served from the peer tier
  // Fills never sent: the oldest when the bounded fill queue was full, or
  // what a stop left queued.
  uint64_t fills_dropped = 0;
};

// Counters from the coordinator's routing plane (src/dist coordinator).
struct FleetStats {
  uint64_t forwarded = 0;     // requests relayed to a worker
  uint64_t retries = 0;       // re-sends after a transport error
  uint64_t failovers = 0;     // reroutes to the next worker in the ring
  uint64_t worker_lost = 0;   // requests answered `worker_lost`
  uint64_t workers_joined = 0;
  uint64_t workers_left = 0;  // graceful departures (leaving heartbeat)
  uint64_t workers_dead = 0;  // declared dead (missed heartbeats/transport)
  // Pooled-channel counters (pipelined coordinator→worker connections).
  uint64_t channels_opened = 0;     // worker channels dialed
  uint64_t channel_reconnects = 0;  // redials after a transport failure
  int64_t channel_inflight_peak = 0;  // deepest per-channel pipelining seen
  uint64_t load_steers = 0;  // routes steered off a saturated worker
};

class Telemetry {
 public:
  // Thread-safe; called by scheduler lanes while a batch is in flight.
  void sample_queue_depth(int64_t depth);

  // Deterministic post-batch recording (called in job-index order).
  void record_job(const JobRecord& rec);
  void record_exec(const ExecRecord& rec);
  void record_cache_stats(const CacheStats& stats);
  void record_incr_stats(const incr::IncrStats& stats);
  // Per-boundary breakdown of the unit tier (one boundary,
  // "parallelize"): shows WHERE in the pipeline edits resume.
  void record_incr_boundary_stats(
      const std::map<std::string, incr::IncrStats>& stats);
  void record_server_stats(const ServerStats& stats);
  void record_peer_cache_stats(const PeerCacheStats& stats);
  void record_fleet_stats(const FleetStats& stats);
  void record_batch_wall_ms(double ms);
  void record_threads(int threads);

  // Aggregates (over recorded jobs).
  size_t jobs() const;
  size_t cache_hits() const;
  double hit_rate() const;  // hits / jobs, 0 when empty
  // Unit-tier hit rate over recorded jobs: unit_hits / unit lookups,
  // 0 when no job did unit-granular work.
  double unit_hit_rate() const;

  // The JSON report: summary, pass totals, cache counters, queue stats,
  // and one row per job.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<JobRecord> jobs_;
  std::vector<ExecRecord> execs_;
  CacheStats cache_;
  incr::IncrStats incr_;
  bool has_incr_ = false;  // "incr" section emitted only when recorded
  std::map<std::string, incr::IncrStats> incr_boundaries_;
  ServerStats server_;
  bool has_server_ = false;  // "server" section emitted only when recorded
  PeerCacheStats peer_cache_;
  bool has_peer_cache_ = false;
  FleetStats fleet_;
  bool has_fleet_ = false;
  double batch_wall_ms_ = 0;
  int threads_ = 1;
  int64_t queue_samples_ = 0;
  int64_t queue_depth_max_ = 0;
  int64_t queue_depth_sum_ = 0;
};

// JSON string escaping, shared with the wire protocol (support/json.h);
// kept under its historical name for existing callers.
inline std::string json_escape(std::string_view s) { return json::escape(s); }

}  // namespace ap::service

// The fleet coordinator: a wire-protocol endpoint that owns no compiler.
//
// Clients speak the exact protocol they would speak to a single-node
// apserved; the coordinator's executor hook shards each compile/run by
// its content fingerprint (service::cache_key — the same value the cache
// tier is keyed by), ranks the routable workers with rendezvous hashing,
// and relays the request as a `forward` to the best-ranked worker.
//
// Robustness, walked in ranking order:
//   - transport error mid-request: one immediate retry on a fresh
//     connection (the TCP session may simply be stale), then the worker
//     is reported to the membership state machine (first failure ->
//     Suspect, second -> Dead) and the request fails over to the next
//     worker in the ranking after a bounded exponential backoff;
//   - `overloaded` from a worker: immediate failover, no health demotion
//     (the worker is healthy, just busy);
//   - ranking exhausted: `worker_lost` when transport failures were seen
//     (safe to retry — the work was never half-applied), `overloaded`
//     when there were no routable workers at all.
//
// The control hook answers `register` and `heartbeat` on the loop thread
// and returns the current routable peer list in each response — that list
// is how workers learn about each other for the peer cache tier. A
// background tick thread ages the health state machine so silent workers
// decay alive -> suspect -> dead between heartbeats.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "dist/channel_pool.h"
#include "dist/membership.h"
#include "net/server.h"
#include "service/telemetry.h"

namespace ap::dist {

struct CoordinatorOptions {
  int port = 0;             // 0 = ephemeral
  int threads = 4;          // forwarding lanes (I/O bound, not compute)
  size_t max_queue = 256;
  int64_t request_timeout_ms = 120'000;
  int64_t drain_timeout_ms = 30'000;
  int64_t idle_timeout_ms = 300'000;
  int max_attempts = 3;         // distinct workers tried per request
  int64_t backoff_ms = 25;      // base failover backoff (doubles per hop)
  int64_t forward_timeout_ms = 120'000;  // per forwarded call
  // Load-aware routing: a worker whose last heartbeat reported
  // queue_depth + running at or above this is stably demoted behind every
  // unsaturated worker in the rendezvous ranking (cache affinity is kept
  // within each group). 0 disables the demotion.
  int64_t saturation_queue_depth = 8;
  // Flight recorder: dump the recent-event ring when a routed request
  // exceeds this (0 = never). See ServerOptions::slow_ms.
  int64_t slow_ms = 0;
  Membership::Options membership;
  service::Telemetry* telemetry = nullptr;
};

class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& opts);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  bool start(std::string* err);
  int port() const;
  int wake_fd() const;  // server self-pipe ('q' = graceful drain)

  void begin_drain();
  void wait();

  Membership& membership() { return membership_; }
  service::FleetStats fleet_stats() const;
  net::Server* server() { return server_.get(); }

 private:
  // Routes one admitted request. When the request is traced, appends one
  // "forward" span per attempted worker (failed attempts marked) with the
  // worker's own span subtree — carried back in its response — grafted
  // under the successful one.
  net::Response route(const net::Request& req,
                      std::vector<obs::Span>* spans);
  bool control(const net::Request& req, net::Response* resp);
  void fleet_metrics(json::Value* out) const;
  // Folds heartbeat-carried worker histogram summaries into fleet-wide
  // quantiles for `stats` responses.
  void fleet_stats_extra(json::Value* out) const;
  void tick_main();

  CoordinatorOptions opts_;
  Membership membership_;
  std::unique_ptr<net::Server> server_;

  std::thread tick_thread_;
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
  bool tick_stop_ = false;

  // One pooled, pipelined channel per worker.
  ChannelPool channels_;

  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> worker_lost_{0};
  std::atomic<uint64_t> load_steers_{0};
};

}  // namespace ap::dist

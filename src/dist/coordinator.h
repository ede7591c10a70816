// The fleet coordinator: a wire-protocol endpoint that owns no compiler.
//
// Clients speak the exact protocol they would speak to a single-node
// apserved; the coordinator shards each compile/run by its content
// fingerprint (service::cache_key — the same value the cache tier is
// keyed by), ranks the routable workers with rendezvous hashing, and
// relays the request as a `forward` to the best-ranked worker.
//
// Forwarding runs entirely on the serving core's event loop, through its
// `dispatch` hook: no lane, no thread hand-off. The loop owns one
// nonblocking, pipelined connection per worker. A forward is encoded
// straight into that connection's outbox, the worker's reply is matched
// by id to its pending forward, and the answer goes to the client's
// outbox in the client's codec. Each admitted request is a small state
// machine over the ranking, driven by replies, connection failures and
// loop timers; nothing on the routing path sleeps or blocks. Each attempt
// dials the worker at the address the membership holds for it then, an
// IPv4 literal: registrations under a hostname are rejected, since
// resolving one could block the loop.
//
// Robustness, walked in ranking order (at most `max_attempts` distinct
// workers, saturated ones stably demoted behind idle ones):
//   - transport error (the connection fails, the worker closes it, or no
//     reply frame arrives on it for `forward_timeout_ms` while forwards
//     are pending): every forward pending on that connection gets one
//     immediate retry on a fresh connection to the same worker (the TCP
//     session may simply be stale). A second failure reports the worker
//     to the membership state machine (first failure -> Suspect, second
//     -> Dead) and fails over to the next worker in the ranking after a
//     bounded exponential backoff, `backoff_ms << (attempt - 1)` capped
//     at 1 s — a loop timer, not a sleep;
//   - `overloaded` from a worker: immediate failover, no health demotion
//     (the worker is healthy, just busy);
//   - ranking exhausted: `worker_lost` when transport failures were seen
//     (safe to retry — the work was never half-applied), `overloaded`
//     when there were no routable workers at all;
//   - deadlines: the serving core answers a request that misses its
//     deadline `deadline_exceeded`; a worker reply arriving later is
//     dropped by id, and a pending retry or failover stops;
//   - backpressure: at most `max_queue` forwards are pending; more are
//     answered `overloaded` at admission.
//
// The control hook answers `register` and `heartbeat` on the loop thread
// and returns the current routable peer list in each response — that list
// is how workers learn about each other for the peer cache tier. A
// background tick thread ages the health state machine so silent workers
// decay alive -> suspect -> dead between heartbeats.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/membership.h"
#include "net/server.h"
#include "service/telemetry.h"

namespace ap::dist {

struct CoordinatorOptions {
  int port = 0;             // 0 = ephemeral
  // Unused: forwarding runs on the event loop and has no lanes. Kept so
  // existing callers still build.
  int threads = 4;
  size_t max_queue = 256;
  int64_t request_timeout_ms = 120'000;
  int64_t drain_timeout_ms = 30'000;
  int64_t idle_timeout_ms = 300'000;
  int max_attempts = 3;         // distinct workers tried per request
  int64_t backoff_ms = 25;      // base failover backoff (doubles per hop)
  // A worker connection with forwards pending and no reply frame for this
  // long counts as failed (0 = never).
  int64_t forward_timeout_ms = 120'000;
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
  using Clock = std::chrono::steady_clock;

  // One admitted request's routing state, keyed by its server ticket.
  struct Forward {
    net::Request fwd;                  // re-sent on retry and failover
    // At most max_attempts worker ids; each send looks the worker's
    // address up afresh, so a re-registration since admission holds.
    std::vector<std::string> ranking;
    size_t attempt = 0;        // index into ranking
    bool retried = false;      // this attempt's same-worker retry is spent
    bool transport_failure = false;
    Clock::time_point t_attempt;
    // Traced requests: one "forward" span per attempted worker (failed
    // attempts marked), the worker's own subtree grafted under the one
    // that answered.
    std::vector<obs::Span> spans;
  };

  // The loop's connection to one worker.
  struct Link {
    std::string host;
    int port = 0;
    uint64_t conn = 0;         // server connection id; 0 = none
    bool answered = false;     // `conn` has delivered a reply
    bool ever_answered = false;
    std::unordered_map<int64_t, uint64_t> pending;  // wire id -> ticket
    // Last reply, or the send that made `pending` non-empty: the
    // forward_timeout_ms clock.
    Clock::time_point progress;
    bool timer_armed = false;
  };

  // Loop thread: the forwarding state machine.
  void dispatch(uint64_t ticket, net::Request req);
  void start_attempt(uint64_t ticket);
  void send(uint64_t ticket);
  void on_reply(const std::string& worker, uint64_t conn,
                std::string_view payload);
  void on_link_closed(const std::string& worker, uint64_t conn);
  void transport_failure(uint64_t ticket);
  void next_attempt(uint64_t ticket);
  void arm_forward_timeout(const std::string& worker);
  Link& link_for(const net::WorkerInfo& w);  // w: the current address

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

  // Loop thread only.
  std::unordered_map<uint64_t, Forward> forwards_;  // by server ticket
  std::unordered_map<std::string, Link> links_;     // by worker id
  int64_t next_wire_id_ = 1;

  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> worker_lost_{0};
  std::atomic<uint64_t> load_steers_{0};
  std::atomic<uint64_t> channels_opened_{0};
  std::atomic<uint64_t> channel_reconnects_{0};
  std::atomic<uint64_t> channel_inflight_peak_{0};
};

}  // namespace ap::dist

// A fleet worker: a full apserved serving core (scheduler + cache +
// wire server) that joins a coordinator and participates in the
// distributed cache tier.
//
// Joining: start() registers with the coordinator and spawns a heartbeat
// thread that reports load + cache counters every heartbeat_interval_ms.
// Every register/heartbeat response refreshes this worker's view of its
// routable peers, so the peer list needs no separate gossip.
//
// Peer cache tier: the scheduler's peer_lookup hook fires on a local
// cache miss *before* compiling — the worker probes peers in rendezvous
// order for the key (the most likely holder first: after a membership
// change the previous owner ranks directly behind the new one) with
// `cache_probe`; a hit is deserialized, adopted into the local cache, and
// reported as cache_hit + peer_hit. The on_store hook fires after a
// fresh compile — the result is replicated with `cache_fill` to the next
// `replicate` peers in the same ranking, so the natural failover targets
// are warm before they are ever asked.
//
// Unit-artifact tier: when a UnitCache is attached, the same
// pattern runs one level down. A unit whose pass-boundary key misses both
// local tiers is probed from peers with `unit_probe` before the pass
// recomputes it, and fresh unit snapshots are pushed with `unit_fill` —
// so a late-joining or resharded worker resumes apps mid-pipeline from
// artifacts its peers already computed, without ever holding the
// whole-request result.
//
// Serving: the worker accepts coordinator-wrapped `forward` requests and
// plain compile/run (it remains a valid single-node endpoint), and
// answers `cache_probe`/`cache_fill` from peers on the loop thread
// (cache lookups only — never a compile).
//
// Departure: begin_drain() announces `leaving` in a final heartbeat and
// drains the server (graceful — the coordinator stops routing here
// immediately). stop_hard() skips the announcement, simulating a crash:
// the coordinator discovers it through transport failures and the health
// state machine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/cache.h"
#include "service/scheduler.h"
#include "service/telemetry.h"

namespace ap::dist {

struct WorkerOptions {
  std::string id;                // "" = derived from pid + port after bind
  std::string host = "127.0.0.1";
  int port = 0;                  // 0 = ephemeral
  int threads = 2;               // compile lanes
  size_t max_queue = 256;
  int64_t request_timeout_ms = 30'000;
  int64_t drain_timeout_ms = 30'000;
  int64_t idle_timeout_ms = 300'000;
  std::string coordinator_host = "127.0.0.1";
  int coordinator_port = 0;      // 0 = standalone (no join, no peers)
  int64_t heartbeat_interval_ms = 500;
  int64_t peer_timeout_ms = 2'000;  // per probe/fill/heartbeat call
  int probe_peers = 2;           // peers probed per local miss
  int replicate = 1;             // peers filled per fresh compile
  // Flight recorder: dump the recent-event ring when a served request
  // exceeds this (0 = never). See ServerOptions::slow_ms.
  int64_t slow_ms = 0;
  service::ResultCache* cache = nullptr;     // required
  service::Telemetry* telemetry = nullptr;   // optional
  incr::UnitCache* unit_cache = nullptr;     // optional incremental tier
};

class Worker {
 public:
  explicit Worker(const WorkerOptions& opts);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Binds and serves; registers with the coordinator (when configured)
  // and starts heartbeating. False with *err when the bind or the
  // initial registration fails.
  bool start(std::string* err);

  int port() const;
  const std::string& id() const { return id_; }
  int wake_fd() const;  // server self-pipe: SIGTERM hook ('q' = drain)

  // Graceful: announce `leaving`, then drain and stop.
  void begin_drain();
  // Crash simulation (tests/CI): stop serving without telling anyone.
  void stop_hard();
  // Wait for the server to finish draining (after begin_drain/stop_hard
  // or an external 'q' on wake_fd()).
  void wait();

  service::PeerCacheStats peer_stats() const;
  service::Scheduler* scheduler() { return scheduler_.get(); }
  net::Server* server() { return server_.get(); }

  // This worker's current peer view (test introspection).
  std::vector<net::WorkerInfo> peers() const;

 private:
  bool control(const net::Request& req, net::Response* resp);
  // Probes ride the originating request's trace context: `trace_id` is
  // stamped on the wire (0 = untraced) so the peer's flight recorder
  // correlates, and a non-null `span` collects one "peer:probe" child per
  // peer tried (detail: peer id + hit/miss/unreachable).
  std::optional<service::CompileResult> peer_lookup(uint64_t key,
                                                    uint64_t trace_id,
                                                    obs::Span* span);
  void replicate(uint64_t key, const service::CompileResult& r,
                 uint64_t trace_id);
  // Unit-artifact hooks (installed on the attached UnitCache): probe the
  // ranked peers for one pass-boundary artifact / push a fresh one.
  std::optional<std::string> unit_peer_lookup(uint64_t key);
  void unit_replicate(const std::string& boundary, uint64_t key,
                      const std::string& payload);
  void heartbeat_main();
  bool send_heartbeat(bool leaving);
  void adopt_peers(const std::vector<net::WorkerInfo>& peers);

  WorkerOptions opts_;
  std::string id_;
  std::unique_ptr<service::Scheduler> scheduler_;
  std::unique_ptr<net::Server> server_;

  std::thread heartbeat_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  mutable std::mutex peers_mu_;
  std::vector<net::WorkerInfo> peers_;

  // Whether a graceful `leaving` heartbeat is still owed on stop (cleared
  // by begin_drain after announcing, by stop_hard to simulate a crash).
  std::atomic<bool> announce_on_stop_{true};

  std::atomic<uint64_t> probes_sent_{0};
  std::atomic<uint64_t> probe_hits_{0};
  std::atomic<uint64_t> fills_sent_{0};
  std::atomic<uint64_t> fills_received_{0};
  std::atomic<uint64_t> peer_hits_{0};
  std::atomic<uint64_t> unit_probes_sent_{0};
  std::atomic<uint64_t> unit_probe_hits_{0};
  std::atomic<uint64_t> unit_fills_sent_{0};
  std::atomic<uint64_t> unit_fills_received_{0};
};

}  // namespace ap::dist

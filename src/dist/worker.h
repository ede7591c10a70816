// A fleet worker: a full apserved serving core (scheduler + cache +
// wire server) that joins a coordinator and participates in the
// distributed cache tier.
//
// Joining: start() registers with the coordinator and spawns a heartbeat
// thread that reports load + cache counters every heartbeat_interval_ms.
// Every register/heartbeat response refreshes this worker's view of its
// routable peers, so the peer list needs no separate gossip.
//
// Peer plane: every hop to a peer (cache_probe, cache_fill, unit_probe,
// unit_fill) rides one lazily dialled, pipelined net::Channel per peer
// (dist/channel_pool.h), retired when the peer leaves this worker's view,
// so no hop pays a TCP connect once the fleet is warm. Heartbeats to the
// coordinator dial per beat.
//
// Peer cache tier: the scheduler's peer_lookup hook fires on a local
// cache miss *before* compiling — the worker probes peers in rendezvous
// order for the key (the most likely holder first: after a membership
// change the previous owner ranks directly behind the new one) with
// `cache_probe`; a hit is deserialized, adopted into the local cache, and
// reported as cache_hit + peer_hit. The on_store hook fires after a
// fresh compile and only queues the serialized result in a bounded
// queue (kMaxQueuedFills; when full, the oldest fill is dropped and
// counted). The lane that served the request sends the queue once its
// reply is out (net::ServerOptions::after_reply), so replication never
// delays a reply: each result goes with `cache_fill` to the next
// `replicate` peers in the same ranking, and the natural failover
// targets are warm before they are ever asked. (Not a sender thread of
// its own: every thread that allocates gets its own malloc arena, and one
// more per worker raised a fleet's peak RSS ~20%.)
//
// Unit-artifact tier: when a UnitCache is attached, the same pattern
// runs one level down. When a pass boundary's units miss both local
// tiers, all the missed keys go to the ranked peers in one `unit_probe`
// per peer before the pass recomputes them (keys a peer answered are not
// asked of the next); fresh unit snapshots join the same fill queue and
// go out as `unit_fill` after the reply — so a late-joining or resharded
// worker resumes apps mid-pipeline from artifacts its peers already
// computed, without ever holding the whole-request result.
//
// Serving: the worker accepts coordinator-wrapped `forward` requests and
// plain compile/run (it remains a valid single-node endpoint), and
// answers `cache_probe`/`cache_fill`/`unit_probe`/`unit_fill` from peers
// on the loop thread (cache lookups only — never a compile).
//
// Departure: begin_drain() announces `leaving` in a final heartbeat and
// drains the server (graceful — the coordinator stops routing here
// immediately); wait() then gives whatever fills are left
// peer_timeout_ms to go out and drops the rest. stop_hard() skips the
// announcement and abandons the queue, simulating a crash: the
// coordinator discovers it through transport failures and the health
// state machine. A lane stops sending to a peer after one transport
// failure per queue drain, so a dead peer costs each drain at most one
// peer_timeout_ms.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/channel_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "service/cache.h"
#include "service/scheduler.h"
#include "service/telemetry.h"

namespace ap::dist {

// Fills a worker queues at most; a full queue drops the oldest
// (PeerCacheStats::fills_dropped).
inline constexpr size_t kMaxQueuedFills = 256;

struct WorkerOptions {
  std::string id;                // "" = derived from pid + port after bind
  std::string host = "127.0.0.1";  // advertised, resolved once at start
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
  // or an external 'q' on wake_fd()); fills still queued get
  // peer_timeout_ms to go out (none after stop_hard).
  void wait();

  // Blocks until every queued fill has been sent or dropped (tests and
  // tools that read fill counters right after a reply).
  void flush_fills();

  service::PeerCacheStats peer_stats() const;
  service::Scheduler* scheduler() { return scheduler_.get(); }
  net::Server* server() { return server_.get(); }

  // This worker's current peer view (test introspection).
  std::vector<net::WorkerInfo> peers() const;

 private:
  using clock = std::chrono::steady_clock;

  // A queued replication: the cache_fill or unit_fill request, built by
  // the thread that stored it, and its key.
  struct Fill {
    uint64_t key = 0;
    net::Request req;
  };

  bool control(const net::Request& req, net::Response* resp);
  // Probes ride the originating request's trace context: `trace_id` is
  // stamped on the wire (0 = untraced) so the peer's flight recorder
  // correlates, and a non-null `span` collects one "peer:probe" child per
  // peer tried (detail: peer id + hit/miss/unreachable).
  std::optional<service::CompileResult> peer_lookup(uint64_t key,
                                                    uint64_t trace_id,
                                                    obs::Span* span);
  // Unit-artifact lookup (installed on the attached UnitCache): one
  // boundary's missed keys, asked of each key's ranked peers in rounds —
  // one unit_probe per peer per round; slot i answers keys[i].
  std::vector<std::optional<std::string>> unit_peer_lookup(
      const std::vector<uint64_t>& keys);
  // One call over `peer`'s kept channel; false on a transport failure.
  bool peer_call(const net::WorkerInfo& peer, net::Request req,
                 net::Response* resp);

  void enqueue_fill(Fill f);
  // Sends queued fills until the queue is empty or `deadline` passes;
  // what is left then is dropped.
  void send_fills(clock::time_point deadline = clock::time_point::max());
  // Sends one fill to its ranked peers, skipping and extending `failed`
  // (the peers that failed a send during this drain).
  void send_fill(Fill& f, std::vector<std::string>* failed);
  // Drops every queued fill and every later one (stop_hard, final drain).
  void close_fills();
  void heartbeat_main();
  bool send_heartbeat(bool leaving);
  void adopt_peers(const std::vector<net::WorkerInfo>& peers);

  WorkerOptions opts_;
  std::string id_;
  std::string host_;  // opts_.host resolved to the IPv4 literal advertised
  std::unique_ptr<service::Scheduler> scheduler_;
  std::unique_ptr<net::Server> server_;

  std::thread heartbeat_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  std::mutex fill_mu_;
  std::condition_variable fill_cv_;  // signalled when a send finishes
  std::deque<Fill> fills_;
  int fills_in_flight_ = 0;
  bool fills_closed_ = false;

  mutable std::mutex peers_mu_;
  std::vector<net::WorkerInfo> peers_;

  // Whether a graceful `leaving` heartbeat is still owed on stop (cleared
  // by begin_drain after announcing, by stop_hard to simulate a crash).
  std::atomic<bool> announce_on_stop_{true};

  ChannelPool peer_channels_;

  std::atomic<uint64_t> probes_sent_{0};
  std::atomic<uint64_t> probe_hits_{0};
  std::atomic<uint64_t> fills_sent_{0};
  std::atomic<uint64_t> fills_received_{0};
  std::atomic<uint64_t> fills_dropped_{0};
  std::atomic<uint64_t> peer_hits_{0};
  std::atomic<uint64_t> unit_probes_sent_{0};
  std::atomic<uint64_t> unit_probe_hits_{0};
  std::atomic<uint64_t> unit_fills_sent_{0};
  std::atomic<uint64_t> unit_fills_received_{0};
};

}  // namespace ap::dist

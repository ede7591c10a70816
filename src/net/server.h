// The apserved serving core: an epoll(7)-based event loop over
// nonblocking loopback TCP sockets, speaking the length-prefixed protocol
// of protocol.h in either codec — JSON or binary TLV (binproto.h) —
// dispatched per frame by the payload's first byte and answered in the
// codec each request arrived in.
//
// Threading model
//   One event-loop thread owns all socket I/O: accepting, reading frames,
//   and flushing per-connection write queues. A daemon that compiles (a
//   single node or a fleet worker) never compiles on the loop thread:
//   admitted requests enter a bounded queue drained by `threads` worker
//   lanes, each dispatching through the compilation service
//   (`service::Scheduler::run_one`), so the daemon shares the
//   content-addressed cache — and its warm-hit fast path — with the batch
//   CLI. Lanes deliver finished responses into the owning connection's
//   outbox and nudge the loop through a self-pipe.
//
//   A role that only relays (the fleet coordinator) sets `dispatch`
//   instead: admitted requests go to that hook on the loop thread, no lane
//   starts, and the hook answers each one later, still on the loop, with
//   complete(). For that the loop also owns outbound connections (dial():
//   a nonblocking connect in its epoll set, frames handed to the dialler,
//   requests encoded straight into the outbox) and one-shot timers
//   (after()). A request then crosses no thread between its client and
//   the socket it is relayed on.
//
// Pipelining
//   Clients may submit any number of requests back to back on one
//   connection; each admitted request is answered with a frame carrying
//   its echoed id, in completion order (out-of-order responses are part
//   of the contract). A `compile_batch` request carries N files in one
//   frame and is answered as one frame of N results.
//
// Hot-path memory discipline
//   Per-connection buffers are reused end to end: the FrameReader
//   recycles its input buffer (offset-based consumption, no per-frame
//   erase), requests are decoded straight from a view into it, and
//   responses are encoded in place into the connection's output buffers
//   (begin_frame/end_frame — no intermediate payload string). Output uses
//   a front/back double buffer flushed with writev: workers append to the
//   back buffer while the loop drains the front, and the two swap in O(1)
//   when the front empties, so a warm-cache hit performs no per-frame
//   heap allocation once the connection's buffers have grown.
//
// Robustness invariants (tested in tests/net_test.cpp)
//   - Backpressure, not buffering: when the admission queue (or, with
//     `dispatch`, the set of dispatched requests not yet completed) holds
//     `max_queue` requests, new work is answered `overloaded` immediately.
//     An accepted request is always answered (ok/error/deadline_exceeded)
//     unless its client disconnects first.
//   - Deadlines are enforced by the event loop: a request that misses its
//     deadline is answered `deadline_exceeded` right then; whatever a
//     lane or a dispatch hook later computes for it is discarded.
//   - A malformed or oversized frame draws a `protocol_error` response and
//     the connection is closed (the stream cannot be resynchronized). A
//     request claiming any version but kProtocolVersion draws a
//     structured `unsupported_version` response and the connection STAYS
//     open — the client can `hello`.
//   - Idle reaping: a connection with no socket activity, no in-flight
//     work, and an empty outbox for `idle_timeout_ms` is closed by the
//     loop, so a silent or half-open peer cannot pin an fd forever.
//   - Graceful drain (begin_drain(), or a byte 'q' on wake_fd() — the
//     async-signal-safe path for SIGINT/SIGTERM handlers): stop accepting
//     connections, answer new requests `overloaded`, finish all queued and
//     running jobs, flush every outbox, then shut down. A hard
//     `drain_timeout_ms` bounds the wait against clients that never read.
//
// Fleet hooks (src/dist)
//   The serving core is role-agnostic: a coordinator is a Server whose
//   `dispatch` hook forwards work to workers over loop-owned connections
//   instead of compiling, and both coordinators and workers answer
//   control-plane messages (register/heartbeat/cache_probe/cache_fill)
//   synchronously on the loop thread through `control`. `extra_metrics`
//   lets a role append its own sections (fleet membership, peer-cache
//   counters) to metrics responses.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "service/scheduler.h"

namespace ap::net {

struct ServerOptions {
  int port = 0;          // 0 = kernel-assigned ephemeral port
  int threads = 1;       // worker lanes executing compile/run jobs (none
                         // start when `dispatch` is set)
  size_t max_queue = 256;  // admission-queue bound (backpressure threshold)
  // Default per-request deadline; requests may override with a smaller or
  // larger "deadline_ms". 0 disables deadlines entirely.
  int64_t request_timeout_ms = 30'000;
  int64_t drain_timeout_ms = 30'000;  // hard bound on graceful drain
  // Connections with no activity, no in-flight requests, and nothing to
  // flush for this long are closed by the loop. 0 disables reaping.
  int64_t idle_timeout_ms = 300'000;
  size_t max_frame_bytes = kDefaultMaxFrame;
  // Role reported in `hello` responses: "single", "coordinator", "worker".
  std::string role = "single";
  service::Scheduler* scheduler = nullptr;  // required unless `dispatch` set
  service::Telemetry* telemetry = nullptr;  // optional: job/exec/server rows
  // When set, admitted compile/run/forward/batch requests are handed to
  // this hook on the loop thread instead of to lanes (the coordinator's
  // shard/forward/failover state machine). The hook owns the request,
  // must not block, and answers it later on the loop thread with
  // complete(ticket, ...). A traced request's hook passes the spans it
  // measured (forward attempts, grafted worker subtrees) to complete(),
  // which roots them under the serving core's own "request" span.
  std::function<void(uint64_t ticket, Request req)> dispatch;
  // Loop-thread handler for fleet control-plane requests (register,
  // heartbeat, cache_probe, cache_fill, unit_probe, unit_fill). Return
  // true when handled; false draws a structured `error` reply ("not a
  // fleet endpoint").
  std::function<bool(const Request&, Response*)> control;
  // Runs on a worker lane right after it delivered a response, before the
  // lane takes its next job (and before a drain can finish): work that
  // must not delay the reply, such as a fleet worker's replication.
  std::function<void()> after_reply;
  // Appends role-specific sections to metrics responses.
  std::function<void(json::Value*)> extra_metrics;
  // Appends role-specific sections to live `stats` responses (the
  // coordinator's fleet-wide histogram merge).
  std::function<void(json::Value*)> extra_stats;
  // Flight recorder: requests slower than this dump the recent-event ring
  // to stderr (0 = never); the ring holds `flight_capacity` events and is
  // also dumped by a 'u' byte on wake_fd() (the SIGUSR1 hook).
  int64_t slow_ms = 0;
  size_t flight_capacity = 256;
  size_t trace_capacity = 64;  // server-side sample of traced span trees
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();  // begins drain and waits if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the loop + worker threads. False with *err
  // on failure (nothing spawned).
  bool start(std::string* err);

  // The bound port (valid after start()).
  int port() const { return port_; }

  // Write end of the self-pipe. write(wake_fd(), "q", 1) begins a graceful
  // drain and is async-signal-safe — this is the SIGTERM/SIGINT hook.
  int wake_fd() const { return wake_w_; }

  // Thread-safe graceful-drain trigger (not for signal handlers).
  void begin_drain();

  // Blocks until drain completes and all threads are joined. Records
  // server stats into the telemetry sink (when attached) before returning.
  void wait();

  bool draining() const { return draining_.load(); }

  service::ServerStats stats() const;

  // Load snapshot for heartbeats: admitted-but-not-running and running.
  int64_t queue_depth() const;
  int64_t jobs_running() const;

  // Live latency distributions for heartbeats and the stats plane: one
  // entry per request type seen ("compile", "metrics", ...) plus one per
  // cache outcome ("cache:memory_hit", "cache:hit", "cache:peer",
  // "cache:miss"). Empty histograms are omitted.
  std::vector<std::pair<std::string, obs::HistogramSnapshot>>
  histogram_snapshots() const;

  // Server-side sample of recent traced span trees (newest-match lookup
  // by trace id); null when the id never ran traced or has aged out.
  const obs::TraceStore& traces() const { return traces_; }

  // ---- Loop-thread API for a `dispatch` hook (loop thread only) ----

  // Answers dispatched request `ticket` in its client's codec: `spans`
  // are rooted under the request span when it is traced, and the latency,
  // flight and cache-outcome taps record it. False, and nothing is sent,
  // when the ticket was already answered (its deadline passed) or its
  // client left.
  bool complete(uint64_t ticket, Response resp, std::vector<obs::Span> spans);

  // Whether `ticket` still awaits its answer.
  bool live(uint64_t ticket) const { return tickets_.count(ticket) != 0; }

  // Callbacks of an outbound connection; both get its connection id.
  // on_frame receives each response payload (a view valid for the call);
  // on_close runs once when the connection fails, the peer closes it, or
  // hangup() is called, and never after the loop has exited.
  struct Upstream {
    std::function<void(uint64_t conn, std::string_view payload)> on_frame;
    std::function<void(uint64_t conn)> on_close;
  };

  // Starts a nonblocking connect to host:port owned by the loop: a dead
  // address costs the loop nothing, and requests sent meanwhile wait in
  // the outbox. `host` must be an IPv4 literal (a name lookup could block
  // the loop). Returns the connection id, or 0 with *err when the connect
  // failed at once (on_close does not run then).
  uint64_t dial(const std::string& host, int port, Upstream up,
                std::string* err);

  // Encodes `req` in the binary codec straight into an outbound
  // connection's outbox; the loop writes it before it next waits. A
  // no-op once the connection is closed (its owner has heard on_close).
  void send(uint64_t conn_id, const Request& req);

  // Closes an outbound connection and runs its on_close.
  void hangup(uint64_t conn_id);

  // One-shot timer: runs `fn` on the loop thread once `delay` has passed.
  void after(std::chrono::milliseconds delay, std::function<void()> fn);

 private:
  enum JobPhase : int { kPending = 0, kRunning = 1, kDone = 2, kAbandoned = 3 };

  struct JobState {
    Request req;
    uint64_t conn_id = 0;
    bool binary = false;  // reply in the codec the request arrived in
    std::chrono::steady_clock::time_point deadline;  // max() = none
    // Admission time: the queue span (admit → worker pickup) and the
    // request's total wall both measure from here.
    std::chrono::steady_clock::time_point t_admit;
    std::atomic<int> phase{kPending};
    uint64_t ticket = 0;  // nonzero when handed to `dispatch`
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameReader reader;
    std::mutex out_mu;
    // Output double buffer: writers (loop handlers, worker deliver)
    // append encoded frames to `out_back`; the flusher drains `out_front`
    // from `front_pos` and the two swap in O(1) when the front empties.
    // Both writev'd together, both keep their capacity across frames.
    std::string out_front;
    std::string out_back;
    size_t front_pos = 0;
    bool closing = false;   // loop thread only: close once outbox drains
    uint32_t epoll_mask = 0;  // loop thread only: current epoll interest
    // Idle-reap bookkeeping: last socket/deliver activity (steady-clock
    // ms) and the number of admitted requests not yet answered.
    std::atomic<int64_t> last_activity_ms{0};
    std::atomic<int> inflight{0};
    // Outbound connections (dial) only; loop thread only.
    bool outbound = false;
    bool connecting = false;  // nonblocking connect still in progress
    Upstream up;
    explicit Connection(size_t max_frame) : reader(max_frame) {}
    // out_mu must be held.
    size_t out_bytes() const {
      return out_front.size() - front_pos + out_back.size();
    }
  };

  void loop_main();
  void worker_main();

  // Loop thread helpers.
  void accept_new_connections();
  // Feeds what the socket holds to conn->reader; false when the peer
  // closed the connection or it failed.
  bool recv_available(const std::shared_ptr<Connection>& conn);
  void read_connection(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);
  void flush_connection(const std::shared_ptr<Connection>& conn);
  void update_interest(const std::shared_ptr<Connection>& conn);
  // Outbound helpers: settles a nonblocking connect on its first
  // readiness event (false when it failed and the connection was closed),
  // and reads response frames.
  bool finish_connect(const std::shared_ptr<Connection>& conn, bool writable);
  void read_upstream(const std::shared_ptr<Connection>& conn);
  // Closes a connection; an outbound one's on_close runs unless the loop
  // is shutting down.
  void close_connection(uint64_t conn_id);
  void fire_timers(std::chrono::steady_clock::time_point now);
  void sweep_deadlines(std::chrono::steady_clock::time_point now);
  void sweep_idle(std::chrono::steady_clock::time_point now);
  json::Value build_metrics() const;
  // Everything metrics reports plus the latency plane: per-type and
  // per-cache-outcome quantile summaries, trace-store counters, and the
  // role's extra_stats sections. Answered inline on the loop thread.
  json::Value build_stats() const;

  // Observability taps, callable from any thread.
  void record_latency(RequestType type, double wall_ms);
  void record_cache_outcome(const char* outcome, double wall_ms);
  void record_flight(uint64_t trace_id, int64_t request_id, const char* type,
                     const char* outcome, double wall_ms,
                     const std::string& digest);
  // Mints a trace id for a traced request that arrived without one (the
  // fleet entry point); forwarded hops keep the id they were handed.
  uint64_t mint_trace_id();

  // Encodes `resp` in the connection's reply codec directly into its
  // output buffer. Callable from any thread.
  void enqueue_response(const std::shared_ptr<Connection>& conn,
                        const Response& resp, bool binary);

  // Any thread: queue an encoded response on a live connection and nudge
  // the loop. False when the connection is gone.
  bool deliver(uint64_t conn_id, const Response& resp, bool binary,
               bool wake = true);
  void nudge();

  // Worker thread: execute one admitted request. When the request is
  // traced, appends the phase spans it measured to `spans` (non-null).
  Response execute(const Request& req, std::vector<obs::Span>* spans);

  // Any thread: the answer to an admitted job. Roots the spans (traced
  // requests) and records latency, cache outcome and flight; then, unless
  // the deadline sweep answered first, counts it completed and delivers.
  // `wake` nudges the loop (lanes); the loop thread passes false.
  bool answer(JobState& job, Response& resp, std::vector<obs::Span> spans,
              bool wake);

  ServerOptions opts_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;
  int port_ = 0;
  bool started_ = false;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<JobState>> queue_;
  int jobs_running_ = 0;
  bool queue_closed_ = false;

  // Jobs with real deadlines, watched by the loop (loop thread only).
  std::vector<std::shared_ptr<JobState>> deadline_watch_;

  // Dispatched requests awaiting complete(), and the loop's timers (loop
  // thread only).
  std::unordered_map<uint64_t, std::shared_ptr<JobState>> tickets_;
  uint64_t next_ticket_ = 1;
  std::multimap<std::chrono::steady_clock::time_point, std::function<void()>>
      timers_;
  bool shutting_down_ = false;  // loop exiting: no more on_close callbacks

  mutable std::mutex stats_mu_;
  service::ServerStats stats_;

  // Latency plane: lock-cheap log-bucketed histograms, one per request
  // type plus one per cache outcome. Indexed by RequestType value.
  static constexpr size_t kTypeHistCount =
      static_cast<size_t>(RequestType::UnitFill) + 1;
  std::array<obs::Histogram, kTypeHistCount> type_hist_;
  obs::Histogram cache_hist_memory_;  // loop-thread warm fast path
  obs::Histogram cache_hist_hit_;     // local (memory or disk) hit
  obs::Histogram cache_hist_peer_;    // adopted from a peer's cache
  obs::Histogram cache_hist_miss_;    // compiled fresh
  obs::FlightRecorder flight_;
  obs::TraceStore traces_;
  std::atomic<uint64_t> trace_seq_{0};
};

}  // namespace ap::net

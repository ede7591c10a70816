#include "net/server.h"

#include <sys/epoll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <string_view>

#include "interp/interp.h"
#include "net/binproto.h"

namespace ap::net {

namespace {

using clock = std::chrono::steady_clock;

constexpr char kWakeDrain = 'q';
constexpr char kWakeNudge = 'n';
constexpr char kWakeDump = 'u';  // SIGUSR1 hook: dump the flight recorder

// epoll_event.data.u64 tags: connection ids start at 1, so these two
// sentinels can never collide with one.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenTag = UINT64_MAX;

double ms_since(clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

int64_t steady_ms(clock::time_point t = clock::now()) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      flight_(opts.flight_capacity),
      traces_(opts.trace_capacity) {
  if (opts_.threads < 1) opts_.threads = 1;
  if (opts_.max_queue < 1) opts_.max_queue = 1;
}

Server::~Server() {
  if (started_ && !stopped_.load()) {
    begin_drain();
    wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

bool Server::start(std::string* err) {
  if (!opts_.scheduler && !opts_.dispatch) {
    if (err) *err = "ServerOptions.scheduler is required (or a dispatch hook)";
    return false;
  }
  listen_fd_ = listen_tcp(opts_.port, &port_, err);
  if (listen_fd_ < 0) return false;
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (err) *err = "pipe failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    if (err) *err = "epoll_create1 failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(wake_r_);
    ::close(wake_w_);
    wake_r_ = wake_w_ = -1;
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_r_, &ev);
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  started_ = true;
  if (!opts_.dispatch)
    for (int i = 0; i < opts_.threads; ++i)
      workers_.emplace_back([this] { worker_main(); });
  loop_thread_ = std::thread([this] { loop_main(); });
  return true;
}

void Server::begin_drain() {
  if (wake_w_ >= 0) {
    char c = kWakeDrain;
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &c, 1);
  }
}

void Server::nudge() {
  if (wake_w_ >= 0) {
    char c = kWakeNudge;
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &c, 1);
  }
}

void Server::wait() {
  if (!started_) return;
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  stopped_.store(true);
  if (opts_.telemetry) opts_.telemetry->record_server_stats(stats());
}

service::ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int64_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t Server::jobs_running() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return jobs_running_;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::loop_main() {
  clock::time_point drain_deadline = clock::time_point::max();

  // Connection readiness, copied out of the epoll batch.
  struct Ready {
    uint64_t id;
    bool readable, writable, errored;
  };
  std::vector<Ready> ready;
  std::array<epoll_event, 128> events;

  while (true) {
    // Wait timeout: nearest deadline (request, timer or drain), else idle
    // tick.
    auto now = clock::now();
    clock::time_point nearest = drain_deadline;
    for (const auto& job : deadline_watch_)
      nearest = std::min(nearest, job->deadline);
    if (!timers_.empty()) nearest = std::min(nearest, timers_.begin()->first);
    int timeout_ms = -1;
    if (nearest != clock::time_point::max()) {
      auto delta =
          std::chrono::duration_cast<std::chrono::milliseconds>(nearest - now)
              .count();
      timeout_ms = static_cast<int>(std::clamp<int64_t>(delta, 0, 60'000));
    }
    // With live connections and idle reaping on, wake often enough that a
    // silent peer is noticed without any readiness on its socket.
    if (opts_.idle_timeout_ms > 0) {
      bool have_conns;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        have_conns = !conns_.empty();
      }
      if (have_conns) {
        int tick = static_cast<int>(
            std::clamp<int64_t>(opts_.idle_timeout_ms / 4, 10, 60'000));
        if (timeout_ms < 0 || tick < timeout_ms) timeout_ms = tick;
      }
    }

    bool wake_ready = false;
    bool accept_ready = false;
    ready.clear();

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        wake_ready = true;
      } else if (tag == kListenTag) {
        accept_ready = true;
      } else {
        ready.push_back({tag, (ev & (EPOLLIN | EPOLLHUP)) != 0,
                         (ev & EPOLLOUT) != 0, (ev & EPOLLERR) != 0});
      }
    }
    now = clock::now();

    // Wake pipe: drain any pending bytes; 'q' starts the drain, 'u' dumps
    // the flight recorder (the async-signal-safe SIGUSR1 hook).
    if (wake_ready) {
      char buf[256];
      ssize_t m;
      while ((m = ::read(wake_r_, buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < m; ++i) {
          if (buf[i] == kWakeDrain && !draining_.load()) {
            draining_.store(true);
            drain_deadline =
                opts_.drain_timeout_ms > 0
                    ? now + std::chrono::milliseconds(opts_.drain_timeout_ms)
                    : clock::time_point::max();
            ::close(listen_fd_);  // epoll deregisters closed fds itself
            listen_fd_ = -1;
          } else if (buf[i] == kWakeDump) {
            std::fprintf(stderr,
                         "apserved[%s]: flight recorder dump (%llu events "
                         "recorded, ring of %zu):\n%s",
                         opts_.role.c_str(),
                         static_cast<unsigned long long>(flight_.recorded()),
                         flight_.capacity(), flight_.dump().c_str());
          }
        }
      }
    }

    if (!draining_.load() && listen_fd_ >= 0 && accept_ready)
      accept_new_connections();

    // Socket I/O per connection (handlers mutate conns_, hence the copy
    // into `ready` above).
    for (auto& r : ready) {
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(r.id);
        if (it == conns_.end()) continue;
        conn = it->second;
      }
      if (conn->outbound) {
        if (conn->connecting && !finish_connect(conn, r.writable)) continue;
        if (r.errored) {
          close_connection(r.id);
          continue;
        }
        if (r.readable) read_upstream(conn);
        if (r.writable && conn->fd >= 0) flush_connection(conn);
        continue;
      }
      if (r.errored) {
        close_connection(r.id);
        continue;
      }
      if (r.readable) read_connection(conn);
      if (r.writable) flush_connection(conn);
    }

    fire_timers(now);
    sweep_deadlines(now);
    if (opts_.idle_timeout_ms > 0 && !draining_.load()) sweep_idle(now);

    // Opportunistic flush: handlers above may have queued responses on
    // connections that signaled readable but not writable this round.
    // This pass also reconciles each connection's interest mask
    // (EPOLL_CTL_MOD only on change).
    {
      std::vector<std::shared_ptr<Connection>> all;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        all.reserve(conns_.size());
        for (auto& [id, conn] : conns_) all.push_back(conn);
      }
      for (auto& conn : all) {
        if (conn->fd < 0) continue;  // closed by a handler this round
        if (!conn->connecting) flush_connection(conn);
        update_interest(conn);
      }
    }

    if (draining_.load()) {
      bool work_done;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        work_done = queue_.empty() && jobs_running_ == 0 && tickets_.empty();
        if (work_done && !queue_closed_) {
          queue_closed_ = true;
          queue_cv_.notify_all();
        }
      }
      bool flushed = true;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [id, conn] : conns_) {
          if (conn->outbound) continue;  // only clients are owed replies
          std::lock_guard<std::mutex> out_lock(conn->out_mu);
          if (conn->out_bytes() > 0) flushed = false;
        }
      }
      if ((work_done && flushed) || now >= drain_deadline) break;
    }
  }

  // Drain complete (or timed out): close every connection, outbound ones
  // without telling their owner.
  shutting_down_ = true;
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) ids.push_back(id);
  }
  for (uint64_t id : ids) close_connection(id);
}

void Server::accept_new_connections() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error: try next loop round
    set_nonblocking(fd);
    // Nagle off: pipelined clients stream small response frames back to
    // back, and coalescing them behind delayed ACKs costs ~40ms stalls.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(opts_.max_frame_bytes);
    conn->fd = fd;
    conn->last_activity_ms.store(steady_ms());
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->epoll_mask = EPOLLIN;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections;
  }
}

void Server::update_interest(const std::shared_ptr<Connection>& conn) {
  if (epoll_fd_ < 0 || conn->fd < 0) return;
  uint32_t want = conn->closing ? 0u : static_cast<uint32_t>(EPOLLIN);
  if (conn->connecting) {
    want |= EPOLLOUT;  // writability reports the connect's outcome
  } else {
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    if (conn->out_bytes() > 0) want |= EPOLLOUT;
  }
  if (want == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->epoll_mask = want;
}

bool Server::recv_available(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity_ms.store(steady_ms());
      conn->reader.feed(buf, static_cast<size_t>(n));
      // A short read drained the socket; epoll is level-triggered, so
      // anything arriving later reports again — skip the EAGAIN probe.
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // orderly or half-open close, or a socket error
  }
}

void Server::read_connection(const std::shared_ptr<Connection>& conn) {
  if (!recv_available(conn)) {
    close_connection(conn->id);
    return;
  }

  // Decode straight from the reader's buffer — the view stays valid
  // through handle_frame (nothing feeds the reader inside it).
  while (auto payload = conn->reader.next_view()) {
    handle_frame(conn, *payload);
    if (conn->closing) return;  // protocol error: stop consuming the stream
  }
  if (conn->reader.error() && !conn->closing) {
    Response resp;
    resp.status = Status::ProtocolError;
    resp.error = conn->reader.error_message();
    enqueue_response(conn, resp, false);
    conn->closing = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.protocol_errors;
  }
}

void Server::enqueue_response(const std::shared_ptr<Connection>& conn,
                              const Response& resp, bool binary) {
  if (!binary) {
    std::string payload = response_to_json(resp).dump();
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    append_frame(&conn->out_back, payload);
    return;
  }
  std::lock_guard<std::mutex> out_lock(conn->out_mu);
  size_t hdr = begin_frame(&conn->out_back);
  encode_response_binary(resp, &conn->out_back);
  end_frame(&conn->out_back, hdr);
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          std::string_view payload) {
  const auto t_frame = clock::now();
  // Codec dispatch: binary TLV frames open with 0xB4, JSON with '{'.
  // The reply always travels in the codec its request arrived in.
  const bool bin = is_binary_frame(payload);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (bin)
      ++stats_.binary_requests;
    else
      ++stats_.json_requests;
  }

  auto reply = [&](const Response& resp) {
    enqueue_response(conn, resp, bin);
  };

  auto protocol_error = [&](std::string why) {
    Response resp;
    resp.status = Status::ProtocolError;
    resp.error = std::move(why);
    reply(resp);
    conn->closing = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.protocol_errors;
  };

  // A hello is answered for any claimed version, and a version mismatch
  // draws a structured `unsupported_version` (connection stays open), so
  // both are settled between the structural decode and validate().
  Request req;
  std::string decode_err;
  if (!read_request(payload, &req, &decode_err)) {
    protocol_error(std::move(decode_err));
    return;
  }
  if (req.type == RequestType::Hello) {
    Response resp;
    resp.id = req.id;
    resp.has_hello = true;
    resp.hello.role = opts_.role;
    resp.hello.draining = draining_.load();
    resp.hello.binary = true;
    reply(resp);
    return;
  }
  if (!validate(req, &decode_err)) {
    if (req.version == kProtocolVersion) {
      protocol_error(std::move(decode_err));
      return;
    }
    Response resp;
    resp.id = req.id;
    resp.status = Status::UnsupportedVersion;
    resp.error = std::move(decode_err);
    reply(resp);
    return;
  }

  switch (req.type) {
    case RequestType::Ping: {
      Response resp;
      resp.id = req.id;
      reply(resp);
      record_latency(req.type, ms_since(t_frame));
      return;
    }
    case RequestType::Hello:  // answered above
      return;
    case RequestType::Metrics: {
      Response resp;
      resp.id = req.id;
      resp.metrics = build_metrics();
      reply(resp);
      record_latency(req.type, ms_since(t_frame));
      return;
    }
    case RequestType::Stats: {
      // The live stats plane: histogram summaries + trace/flight counters,
      // answered inline on the loop thread — polling a busy daemon never
      // queues behind compile work or drains anything.
      Response resp;
      resp.id = req.id;
      resp.metrics = build_stats();
      reply(resp);
      record_latency(req.type, ms_since(t_frame));
      return;
    }
    case RequestType::Register:
    case RequestType::Heartbeat:
    case RequestType::CacheProbe:
    case RequestType::CacheFill:
    case RequestType::UnitProbe:
    case RequestType::UnitFill: {
      // Fleet control plane: answered synchronously on the loop thread
      // (handlers are lock-and-copy, never compile).
      Response resp;
      resp.id = req.id;
      if (!opts_.control || !opts_.control(req, &resp)) {
        resp.status = Status::Error;
        resp.error = std::string(request_type_name(req.type)) +
                     " not supported: not a fleet endpoint";
      }
      resp.id = req.id;
      reply(resp);
      double wall = ms_since(t_frame);
      record_latency(req.type, wall);
      // Cache probes/fills carry the originating request's trace id, so
      // the flight recorder correlates a peer hop with the request that
      // caused it. Heartbeats/registers are periodic noise — not recorded.
      if (req.type == RequestType::CacheProbe ||
          req.type == RequestType::CacheFill ||
          req.type == RequestType::UnitProbe ||
          req.type == RequestType::UnitFill) {
        record_flight(req.trace_id, req.id, request_type_name(req.type),
                      resp.status == Status::Ok ? "ok" : "error", wall, "");
      }
      return;
    }
    case RequestType::Compile:
    case RequestType::Run:
    case RequestType::Forward:
    case RequestType::CompileBatch: {
      if (draining_.load()) {
        Response resp;
        resp.id = req.id;
        resp.status = Status::Overloaded;
        resp.error = "server is draining";
        reply(resp);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_overload;
        return;
      }
      // Trace context is minted at admission: a traced request arriving
      // without an id gets one here (the fleet entry point); a forwarded
      // hop keeps the id the coordinator stamped on it, so every span the
      // fleet records for this request correlates.
      if (req.trace && req.trace_id == 0) req.trace_id = mint_trace_id();
      // Warm-hit fast path: a compile whose result already sits in the
      // memory cache is answered inline — no queue hop, no worker
      // wake-up, no per-frame allocation. Only pure compiles qualify
      // (runs execute, batches fan out, a relaying role has no cache),
      // and only the memory tier is probed so the loop thread never
      // blocks on disk.
      if (opts_.scheduler) {
        RequestType effective =
            req.type == RequestType::Forward ? req.inner : req.type;
        if (effective == RequestType::Compile) {
          if (service::ResultCache* cache = opts_.scheduler->cache()) {
            uint64_t key = service::cache_key(req.source, req.annotations,
                                              req.options);
            if (auto hit = cache->find_memory(key)) {
              Response resp;
              resp.id = req.id;
              resp.has_result = true;
              resp.result = std::move(*hit);
              resp.result.cache_hit = true;
              if (!resp.result.ok) {
                resp.status = Status::Error;
                resp.error = "compilation failed: " + resp.result.error;
              }
              if (opts_.telemetry) {
                service::JobRecord rec;
                rec.app = req.name.empty() ? "WIRE" : req.name;
                rec.config = driver::config_name(req.options.config);
                rec.ok = resp.result.ok;
                rec.cache_hit = true;
                rec.dep_tests = resp.result.dep_tests;
                rec.dep_tests_unique = resp.result.dep_tests_unique;
                rec.parallel_loops = resp.result.parallel_loops.size();
                rec.code_lines = resp.result.code_lines;
                opts_.telemetry->record_job(rec);
              }
              double wall = ms_since(t_frame);
              if (req.trace) {
                obs::Span root{"request", "compile fastpath", wall, {}};
                root.children.push_back({"cache", "memory_hit", wall, {}});
                resp.trace = obs::span_to_json(root);
                traces_.record(req.trace_id, resp.trace);
              }
              reply(resp);
              record_latency(req.type, wall);
              record_cache_outcome("memory_hit", wall);
              record_flight(req.trace_id, req.id,
                            request_type_name(req.type), "memory_hit", wall,
                            "cache memory_hit");
              std::lock_guard<std::mutex> lock(stats_mu_);
              ++stats_.accepted;
              ++stats_.completed;
              return;
            }
          }
        }
      }
      auto job = std::make_shared<JobState>();
      job->conn_id = conn->id;
      job->binary = bin;
      int64_t timeout = req.deadline_ms > 0 ? req.deadline_ms
                                            : opts_.request_timeout_ms;
      job->deadline = timeout > 0
                          ? clock::now() + std::chrono::milliseconds(timeout)
                          : clock::time_point::max();
      job->t_admit = t_frame;
      if (opts_.dispatch) {
        if (tickets_.size() >= opts_.max_queue) {
          Response resp;
          resp.id = req.id;
          resp.status = Status::Overloaded;
          resp.error = "admission queue full (" +
                       std::to_string(opts_.max_queue) + " requests)";
          reply(resp);
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.rejected_overload;
          return;
        }
        // The hook takes the request; the job keeps what answering it
        // needs.
        job->req.id = req.id;
        job->req.type = req.type;
        job->req.inner = req.inner;
        job->req.trace = req.trace;
        job->req.trace_id = req.trace_id;
        job->ticket = next_ticket_++;
        job->phase.store(kRunning);
        tickets_.emplace(job->ticket, job);
        int depth = conn->inflight.fetch_add(1) + 1;
        {
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.accepted;
          stats_.queue_depth_peak = std::max(
              stats_.queue_depth_peak, static_cast<int64_t>(tickets_.size()));
          stats_.pipeline_depth_peak =
              std::max(stats_.pipeline_depth_peak, static_cast<int64_t>(depth));
        }
        if (job->deadline != clock::time_point::max())
          deadline_watch_.push_back(job);
        opts_.dispatch(job->ticket, std::move(req));
        return;
      }
      job->req = std::move(req);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.size() >= opts_.max_queue) {
          Response resp;
          resp.id = job->req.id;
          resp.status = Status::Overloaded;
          resp.error = "admission queue full (" +
                       std::to_string(opts_.max_queue) + " requests)";
          reply(resp);
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.rejected_overload;
          return;
        }
        queue_.push_back(job);
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.accepted;
        stats_.queue_depth_peak = std::max(
            stats_.queue_depth_peak, static_cast<int64_t>(queue_.size()));
      }
      // Idle sweep must not reap mid-request; the post-increment depth is
      // the connection's current pipelining depth.
      int depth = conn->inflight.fetch_add(1) + 1;
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        stats_.pipeline_depth_peak =
            std::max(stats_.pipeline_depth_peak, static_cast<int64_t>(depth));
      }
      queue_cv_.notify_one();
      if (job->deadline != clock::time_point::max())
        deadline_watch_.push_back(job);
      return;
    }
  }
}

void Server::flush_connection(const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    while (conn->out_bytes() > 0) {
      if (conn->front_pos == conn->out_front.size()) {
        // Front drained: O(1) role swap, capacities recycled.
        conn->out_front.clear();
        conn->front_pos = 0;
        std::swap(conn->out_front, conn->out_back);
      }
      iovec iov[2];
      iov[0].iov_base = conn->out_front.data() + conn->front_pos;
      iov[0].iov_len = conn->out_front.size() - conn->front_pos;
      int iovcnt = 1;
      if (!conn->out_back.empty()) {
        iov[1].iov_base = conn->out_back.data();
        iov[1].iov_len = conn->out_back.size();
        iovcnt = 2;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iovcnt;
      ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        size_t front_rem = iov[0].iov_len;
        if (static_cast<size_t>(n) <= front_rem) {
          conn->front_pos += static_cast<size_t>(n);
        } else {
          // The write ran into the back buffer: the front is fully sent;
          // promote the back to front with the spill consumed.
          size_t into_back = static_cast<size_t>(n) - front_rem;
          conn->out_front.clear();
          std::swap(conn->out_front, conn->out_back);
          conn->front_pos = into_back;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // broken pipe / reset
      break;
    }
    if (conn->out_bytes() == 0) {
      conn->out_front.clear();
      conn->front_pos = 0;
      if (conn->closing) close_now = true;
    }
  }
  if (close_now) close_connection(conn->id);
}

void Server::close_connection(uint64_t conn_id) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
  }
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  if (conn->outbound && !shutting_down_ && conn->up.on_close)
    conn->up.on_close(conn_id);
}

void Server::sweep_deadlines(clock::time_point now) {
  for (auto& job : deadline_watch_) {
    if (!job) continue;
    int phase = job->phase.load();
    if (phase == kDone || phase == kAbandoned) {
      job.reset();
      continue;
    }
    if (now < job->deadline) continue;
    // Expired while queued or running: abandon, answer now. The CAS loses
    // only to a worker completing at this instant — then the real answer
    // is already on its way and this sweep does nothing.
    int expected = kPending;
    bool abandoned = job->phase.compare_exchange_strong(expected, kAbandoned);
    if (!abandoned) {
      expected = kRunning;
      abandoned = job->phase.compare_exchange_strong(expected, kAbandoned);
    }
    if (abandoned) {
      Response resp;
      resp.id = job->req.id;
      resp.status = Status::DeadlineExceeded;
      resp.error = "request missed its deadline";
      deliver(job->conn_id, resp, job->binary, /*wake=*/false);
      if (job->ticket) tickets_.erase(job->ticket);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.timed_out;
    }
    job.reset();
  }
  deadline_watch_.erase(
      std::remove(deadline_watch_.begin(), deadline_watch_.end(), nullptr),
      deadline_watch_.end());
}

void Server::sweep_idle(clock::time_point now) {
  int64_t now_ms = steady_ms(now);
  std::vector<uint64_t> reap;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn->closing || conn->outbound) continue;
      if (conn->inflight.load() > 0) continue;
      {
        std::lock_guard<std::mutex> out_lock(conn->out_mu);
        if (conn->out_bytes() > 0) continue;
      }
      if (now_ms - conn->last_activity_ms.load() >= opts_.idle_timeout_ms)
        reap.push_back(id);
    }
  }
  for (uint64_t id : reap) close_connection(id);
  if (!reap.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.idle_closed += reap.size();
  }
}

json::Value Server::build_metrics() const {
  json::Value out = json::Value::object();
  if (opts_.scheduler && opts_.scheduler->cache()) {
    service::CacheStats cs = opts_.scheduler->cache()->stats();
    json::Value cache = json::Value::object();
    cache.set("memory_hits", cs.memory_hits)
        .set("disk_hits", cs.disk_hits)
        .set("misses", cs.misses)
        .set("stores", cs.stores)
        .set("evictions", cs.evictions)
        .set("disk_evictions", cs.disk_evictions)
        .set("disk_bytes", cs.disk_bytes);
    out.set("cache", std::move(cache));
  }
  service::ServerStats ss = stats();
  json::Value server = json::Value::object();
  server.set("connections", ss.connections)
      .set("accepted", ss.accepted)
      .set("completed", ss.completed)
      .set("rejected_overload", ss.rejected_overload)
      .set("timed_out", ss.timed_out)
      .set("protocol_errors", ss.protocol_errors)
      .set("idle_closed", ss.idle_closed)
      .set("queue_depth_peak", ss.queue_depth_peak)
      .set("json_requests", ss.json_requests)
      .set("binary_requests", ss.binary_requests)
      .set("pipeline_depth_peak", ss.pipeline_depth_peak)
      .set("batches", ss.batches)
      .set("batch_items", ss.batch_items)
      .set("batch_max", ss.batch_max)
      .set("role", opts_.role)
      .set("draining", draining_.load());
  out.set("server", std::move(server));
  if (opts_.extra_metrics) opts_.extra_metrics(&out);
  return out;
}

json::Value Server::build_stats() const {
  json::Value out = build_metrics();
  json::Value hist = json::Value::object();
  for (auto& [name, snap] : histogram_snapshots())
    hist.set(name, snap.summary_json());
  out.set("hist", std::move(hist));
  json::Value tr = json::Value::object();
  tr.set("recorded", static_cast<int64_t>(traces_.recorded()))
      .set("sampled", static_cast<int64_t>(traces_.size()));
  out.set("traces", std::move(tr));
  json::Value fl = json::Value::object();
  fl.set("recorded", static_cast<int64_t>(flight_.recorded()))
      .set("capacity", static_cast<int64_t>(flight_.capacity()));
  out.set("flight", std::move(fl));
  if (opts_.extra_stats) opts_.extra_stats(&out);
  return out;
}

std::vector<std::pair<std::string, obs::HistogramSnapshot>>
Server::histogram_snapshots() const {
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> out;
  for (size_t i = 0; i < kTypeHistCount; ++i) {
    obs::HistogramSnapshot snap = type_hist_[i].snapshot();
    if (!snap.empty())
      out.emplace_back(request_type_name(static_cast<RequestType>(i)),
                       std::move(snap));
  }
  auto add = [&](const char* name, const obs::Histogram& h) {
    obs::HistogramSnapshot s = h.snapshot();
    if (!s.empty()) out.emplace_back(name, std::move(s));
  };
  add("cache:memory_hit", cache_hist_memory_);
  add("cache:hit", cache_hist_hit_);
  add("cache:peer", cache_hist_peer_);
  add("cache:miss", cache_hist_miss_);
  return out;
}

void Server::record_latency(RequestType type, double wall_ms) {
  size_t i = static_cast<size_t>(type);
  if (i < kTypeHistCount) type_hist_[i].record_ms(wall_ms);
}

void Server::record_cache_outcome(const char* outcome, double wall_ms) {
  obs::Histogram* h = nullptr;
  std::string_view o = outcome;
  if (o == "memory_hit")
    h = &cache_hist_memory_;
  else if (o == "cache_hit")
    h = &cache_hist_hit_;
  else if (o == "peer_hit")
    h = &cache_hist_peer_;
  else if (o == "miss")
    h = &cache_hist_miss_;
  if (h) h->record_ms(wall_ms);
}

void Server::record_flight(uint64_t trace_id, int64_t request_id,
                           const char* type, const char* outcome,
                           double wall_ms, const std::string& digest) {
  obs::FlightEvent ev;
  ev.trace_id = trace_id;
  ev.request_id = request_id;
  ev.type = type;
  ev.outcome = outcome;
  ev.wall_ms = wall_ms;
  ev.digest = digest;
  flight_.record(std::move(ev));
  // A slow request dumps the ring right now — the events *leading up to*
  // it are still in the window.
  if (opts_.slow_ms > 0 && wall_ms >= static_cast<double>(opts_.slow_ms)) {
    std::fprintf(stderr,
                 "apserved[%s]: slow request id=%lld type=%s (%.3fms >= "
                 "--slow-ms %lld); flight recorder:\n%s",
                 opts_.role.c_str(), static_cast<long long>(request_id), type,
                 wall_ms, static_cast<long long>(opts_.slow_ms),
                 flight_.dump().c_str());
  }
}

uint64_t Server::mint_trace_id() {
  // Port + monotonic clock + per-process sequence, mixed through the
  // splitmix64 finalizer so ids from one daemon don't share a prefix.
  uint64_t x = static_cast<uint64_t>(steady_ms()) << 20;
  x ^= static_cast<uint64_t>(port_) << 48;
  x += trace_seq_.fetch_add(1, std::memory_order_relaxed) +
       0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x ? x : 1;  // 0 means "untraced" on the wire
}

bool Server::deliver(uint64_t conn_id, const Response& resp, bool binary,
                     bool wake) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return false;  // client went away
    conn = it->second;
  }
  enqueue_response(conn, resp, binary);
  conn->last_activity_ms.store(steady_ms());
  conn->inflight.fetch_sub(1);  // exactly one deliver per admitted job
  if (wake) nudge();
  return true;
}

bool Server::answer(JobState& job, Response& resp,
                    std::vector<obs::Span> spans, bool wake) {
  resp.id = job.req.id;
  const double wall = ms_since(job.t_admit);
  // Outcome label shared by the flight recorder and the per-outcome cache
  // histograms.
  const char* outcome = "ok";
  if (resp.status != Status::Ok)
    outcome = "error";
  else if (resp.has_result)
    outcome = resp.result.peer_hit    ? "peer_hit"
              : resp.result.cache_hit ? "cache_hit"
                                      : "miss";
  std::string digest;
  if (job.req.trace) {
    // Root the phase spans under one "request" span whose wall time is
    // the admission-to-completion interval.
    obs::Span root{"request", request_type_name(job.req.type), wall,
                   std::move(spans)};
    for (const auto& c : root.children) {
      if (!digest.empty()) digest += '+';
      digest += c.name;
    }
    resp.trace = obs::span_to_json(root);
    traces_.record(job.req.trace_id, resp.trace);
  }
  record_latency(job.req.type, wall);
  // Cache-outcome histograms are a compile-path concept; runs and batches
  // would skew them.
  RequestType eff =
      job.req.type == RequestType::Forward ? job.req.inner : job.req.type;
  if (eff == RequestType::Compile && resp.has_result &&
      resp.status == Status::Ok)
    record_cache_outcome(outcome, wall);
  record_flight(job.req.trace_id, job.req.id, request_type_name(job.req.type),
                outcome, wall, digest);
  int expected = kRunning;
  if (!job.phase.compare_exchange_strong(expected, kDone))
    return false;  // abandoned: the loop already answered deadline_exceeded
  // Count before delivering: a client that holds the response (and then
  // polls `stats`) must see it reflected in `completed`.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
  }
  return deliver(job.conn_id, resp, job.binary, wake);
}

// ---------------------------------------------------------------------------
// Loop-thread API: dispatched requests, outbound connections, timers
// ---------------------------------------------------------------------------

bool Server::complete(uint64_t ticket, Response resp,
                      std::vector<obs::Span> spans) {
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return false;
  std::shared_ptr<JobState> job = std::move(it->second);
  tickets_.erase(it);
  return answer(*job, resp, std::move(spans), /*wake=*/false);
}

uint64_t Server::dial(const std::string& host, int port, Upstream up,
                      std::string* err) {
  int fd = connect_tcp(host, port, err, /*nonblocking=*/true);
  if (fd < 0) return 0;
  auto conn = std::make_shared<Connection>(opts_.max_frame_bytes);
  conn->fd = fd;
  conn->outbound = true;
  conn->connecting = true;
  conn->up = std::move(up);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->id = next_conn_id_++;
    conns_[conn->id] = conn;
  }
  // Writability reports the connect's outcome (update_interest keeps
  // EPOLLOUT while it is pending).
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conn->epoll_mask = EPOLLIN | EPOLLOUT;
  return conn->id;
}

void Server::send(uint64_t conn_id, const Request& req) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  std::lock_guard<std::mutex> out_lock(conn->out_mu);
  size_t hdr = begin_frame(&conn->out_back);
  encode_request_binary(req, &conn->out_back);
  end_frame(&conn->out_back, hdr);
}

void Server::hangup(uint64_t conn_id) { close_connection(conn_id); }

void Server::after(std::chrono::milliseconds delay, std::function<void()> fn) {
  timers_.emplace(clock::now() + delay, std::move(fn));
}

void Server::fire_timers(clock::time_point now) {
  // A timer may add timers; those run on a later round.
  while (!timers_.empty() && timers_.begin()->first <= now) {
    std::function<void()> fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

bool Server::finish_connect(const std::shared_ptr<Connection>& conn,
                            bool writable) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
      soerr != 0 || !writable) {
    close_connection(conn->id);
    return false;
  }
  conn->connecting = false;
  return true;
}

void Server::read_upstream(const std::shared_ptr<Connection>& conn) {
  bool open = recv_available(conn);
  // Frames that arrived before a close are still answers.
  while (auto payload = conn->reader.next_view()) {
    conn->up.on_frame(conn->id, *payload);
    if (conn->fd < 0) return;  // the owner hung up from inside on_frame
  }
  if (!open || conn->reader.error()) close_connection(conn->id);
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void Server::worker_main() {
  while (true) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return !queue_.empty() || queue_closed_; });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++jobs_running_;
    }

    int expected = kPending;
    if (job->phase.compare_exchange_strong(expected, kRunning)) {
      const auto t_run = clock::now();
      std::vector<obs::Span> spans;
      Response resp = execute(job->req, job->req.trace ? &spans : nullptr);
      if (job->req.trace) {
        // The queue span is the admit -> lane-pickup wait execute() never
        // sees; it leads the phase spans.
        spans.insert(
            spans.begin(),
            {"queue", "",
             std::chrono::duration<double, std::milli>(t_run - job->t_admit)
                 .count(),
             {}});
      }
      answer(*job, resp, std::move(spans), /*wake=*/true);
    }
    if (opts_.after_reply) opts_.after_reply();

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --jobs_running_;
    }
    nudge();  // let the loop re-evaluate drain completion
  }
}

Response Server::execute(const Request& req, std::vector<obs::Span>* spans) {
  // A forward is the coordinator-wrapped form of compile/run/batch;
  // unwrap it and serve the inner request locally (workers never
  // re-forward).
  RequestType effective =
      req.type == RequestType::Forward ? req.inner : req.type;

  Response resp;
  resp.id = req.id;
  try {
    if (effective == RequestType::CompileBatch) {
      // One frame, N files: each item runs through the cache-aware
      // scheduler on this lane (run_batch's pool is single-batch, and
      // other lanes keep serving other connections meanwhile). Per-item
      // failures stay in their CompileResult; the frame itself is ok.
      resp.has_batch = true;
      resp.batch.reserve(req.batch.size());
      for (const auto& item : req.batch) {
        service::CompileJob job;
        job.app.name = item.name.empty() ? "WIRE" : item.name;
        job.app.source = item.source;
        job.app.annotations = item.annotations;
        job.opts = item.options;
        auto t0 = clock::now();
        obs::Span item_span{"item", job.app.name, 0, {}};
        service::CompileResult r = opts_.scheduler->run_one(
            job, spans ? &item_span : nullptr, req.trace_id);
        if (spans) {
          item_span.wall_ms = ms_since(t0);
          spans->push_back(std::move(item_span));
        }
        if (opts_.telemetry) {
          service::JobRecord rec;
          rec.app = job.app.name;
          rec.config = driver::config_name(job.opts.config);
          rec.ok = r.ok;
          rec.cache_hit = r.cache_hit;
          rec.wall_ms = ms_since(t0);
          rec.dep_tests = r.dep_tests;
          rec.dep_tests_unique = r.dep_tests_unique;
          rec.parallel_loops = r.parallel_loops.size();
          rec.code_lines = r.code_lines;
          if (!r.cache_hit) rec.timings = r.timings;
          opts_.telemetry->record_job(rec);
        }
        resp.batch.push_back(std::move(r));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.batches;
      stats_.batch_items += req.batch.size();
      stats_.batch_max = std::max(stats_.batch_max,
                                  static_cast<uint64_t>(req.batch.size()));
      return resp;
    }

    service::CompileJob job;
    job.app.name = req.name.empty() ? "WIRE" : req.name;
    job.app.source = req.source;
    job.app.annotations = req.annotations;
    job.opts = req.options;

    if (effective == RequestType::Compile) {
      auto t0 = clock::now();
      // run_one appends its phase spans (cache, peer probes, compile with
      // per-pass children) to a holder; they land flat under the root.
      obs::Span holder;
      resp.result = opts_.scheduler->run_one(job, spans ? &holder : nullptr,
                                             req.trace_id);
      if (spans)
        for (auto& c : holder.children) spans->push_back(std::move(c));
      resp.has_result = true;
      if (!resp.result.ok) {
        resp.status = Status::Error;
        resp.error = "compilation failed: " + resp.result.error;
      }
      if (opts_.telemetry) {
        service::JobRecord rec;
        rec.app = job.app.name;
        rec.config = driver::config_name(job.opts.config);
        rec.ok = resp.result.ok;
        rec.cache_hit = resp.result.cache_hit;
        rec.wall_ms = ms_since(t0);
        rec.dep_tests = resp.result.dep_tests;
        rec.dep_tests_unique = resp.result.dep_tests_unique;
        rec.parallel_loops = resp.result.parallel_loops.size();
        rec.code_lines = resp.result.code_lines;
        if (!resp.result.cache_hit) rec.timings = resp.result.timings;
        opts_.telemetry->record_job(rec);
      }
      return resp;
    }

    // Run: execution needs the live AST with its OMP metadata (the cached
    // program text parses the directives as comments), so run the pipeline
    // directly instead of through the cache.
    auto t_compile = clock::now();
    auto pr = driver::run_pipeline(job.app, job.opts);
    resp.result = service::to_compile_result(pr);
    resp.has_result = true;
    if (spans) {
      obs::Span compile{"compile", "", ms_since(t_compile), {}};
      for (const auto& p : resp.result.timings.passes)
        compile.children.push_back({"pass:" + p.name, "", p.wall_ms, {}});
      spans->push_back(std::move(compile));
    }
    if (!pr.ok || !pr.program) {
      resp.status = Status::Error;
      resp.error = "compilation failed: " + pr.error;
      return resp;
    }
    auto t0 = clock::now();
    interp::Interpreter interp(*pr.program, req.interp);
    interp::RunResult rr = interp.run();
    double wall_ms = ms_since(t0);
    if (spans)
      spans->push_back(
          {"interp",
           req.interp.engine == interp::Engine::Tree ? "tree" : "bytecode",
           wall_ms,
           {}});
    resp.has_run = true;
    resp.run.ok = rr.ok;
    resp.run.stopped = rr.stopped;
    resp.run.stop_message = rr.stop_message;
    resp.run.error = rr.error;
    resp.run.output = rr.output;
    resp.run.statements = rr.statements_executed;
    resp.run.statements_parallel = rr.statements_in_parallel;
    resp.run.instructions = rr.instructions_executed;
    resp.run.wall_ms = wall_ms;
    if (!rr.ok) {
      resp.status = Status::Error;
      resp.error = "execution failed: " + rr.error;
    }
    if (opts_.telemetry) {
      service::ExecRecord er;
      er.app = job.app.name;
      er.config = driver::config_name(job.opts.config);
      er.engine =
          req.interp.engine == interp::Engine::Tree ? "tree" : "bytecode";
      er.threads = req.interp.num_threads;
      er.ok = rr.ok;
      er.wall_ms = wall_ms;
      er.bytecode_compile_ms = rr.bytecode_compile_ms;
      er.instructions = rr.instructions_executed;
      er.statements = rr.statements_executed;
      er.statements_parallel = rr.statements_in_parallel;
      opts_.telemetry->record_exec(er);
    }
  } catch (const std::exception& e) {
    resp.status = Status::Error;
    resp.error = std::string("internal error: ") + e.what();
  }
  return resp;
}

}  // namespace ap::net

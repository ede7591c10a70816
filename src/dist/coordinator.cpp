#include "dist/coordinator.h"

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>

#include "dist/shard.h"
#include "net/binproto.h"
#include "obs/histogram.h"
#include "service/cache.h"

namespace ap::dist {

namespace {

using clock = std::chrono::steady_clock;

double ms_since(clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

// Routing fingerprint: the content cache key for a single compile/run; a
// batch hashes its items' keys together (FNV-style fold), so identical
// batches route identically and share a worker's warm cache.
uint64_t route_key(const net::Request& req) {
  net::RequestType effective =
      req.type == net::RequestType::Forward ? req.inner : req.type;
  if (effective == net::RequestType::CompileBatch) {
    uint64_t key = 1469598103934665603ull;
    for (const auto& item : req.batch) {
      uint64_t k =
          service::cache_key(item.source, item.annotations, item.options);
      key = (key ^ k) * 1099511628211ull;
    }
    return key;
  }
  return service::cache_key(req.source, req.annotations, req.options);
}

// The loop dials workers without resolving names, which could block it,
// so a worker advertises an IPv4 literal ("" stands for 127.0.0.1).
bool dialable(const std::string& host) {
  in_addr a{};
  return host.empty() || ::inet_pton(AF_INET, host.c_str(), &a) == 1;
}

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& opts)
    : opts_(opts), membership_(opts.membership) {
  if (opts_.max_attempts < 1) opts_.max_attempts = 1;
}

Coordinator::~Coordinator() {
  if (server_) {
    begin_drain();
    wait();
  }
}

bool Coordinator::start(std::string* err) {
  net::ServerOptions no;
  no.port = opts_.port;
  no.max_queue = opts_.max_queue;
  no.request_timeout_ms = opts_.request_timeout_ms;
  no.drain_timeout_ms = opts_.drain_timeout_ms;
  no.idle_timeout_ms = opts_.idle_timeout_ms;
  no.role = "coordinator";
  no.telemetry = opts_.telemetry;
  no.slow_ms = opts_.slow_ms;
  no.dispatch = [this](uint64_t ticket, net::Request req) {
    dispatch(ticket, std::move(req));
  };
  no.control = [this](const net::Request& req, net::Response* resp) {
    return control(req, resp);
  };
  no.extra_metrics = [this](json::Value* out) { fleet_metrics(out); };
  no.extra_stats = [this](json::Value* out) { fleet_stats_extra(out); };
  server_ = std::make_unique<net::Server>(no);
  if (!server_->start(err)) {
    server_.reset();
    return false;
  }
  tick_thread_ = std::thread([this] { tick_main(); });
  return true;
}

int Coordinator::port() const { return server_ ? server_->port() : 0; }

int Coordinator::wake_fd() const { return server_ ? server_->wake_fd() : -1; }

void Coordinator::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    tick_stop_ = true;
  }
  tick_cv_.notify_all();
  if (tick_thread_.joinable()) tick_thread_.join();
  if (server_) server_->begin_drain();
}

void Coordinator::wait() {
  if (server_) server_->wait();
  // The drain may have been triggered externally ('q' on wake_fd, the
  // SIGTERM path) — stop the tick thread here too.
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    tick_stop_ = true;
  }
  tick_cv_.notify_all();
  if (tick_thread_.joinable()) tick_thread_.join();
  if (opts_.telemetry) opts_.telemetry->record_fleet_stats(fleet_stats());
}

service::FleetStats Coordinator::fleet_stats() const {
  service::FleetStats s;
  s.forwarded = forwarded_.load();
  s.retries = retries_.load();
  s.failovers = failovers_.load();
  s.worker_lost = worker_lost_.load();
  s.workers_joined = membership_.joined();
  s.workers_left = membership_.left();
  s.workers_dead = membership_.died();
  s.load_steers = load_steers_.load();
  s.channels_opened = channels_opened_.load();
  s.channel_reconnects = channel_reconnects_.load();
  s.channel_inflight_peak =
      static_cast<int64_t>(channel_inflight_peak_.load());
  return s;
}

// ---------------------------------------------------------------------------
// Forwarding plane (loop thread)
//
// A Forward may complete, and be erased, inside any call below that sends
// or fails over, so each step looks its state up by ticket again instead
// of holding a reference across such a call.
// ---------------------------------------------------------------------------

void Coordinator::dispatch(uint64_t ticket, net::Request req) {
  // Shard by the content fingerprint — the same key the cache tier uses,
  // so a key's route and its cache home coincide.
  uint64_t key = route_key(req);
  std::vector<Membership::RoutableWorker> routable =
      membership_.routable_with_load();
  if (routable.empty()) {
    net::Response resp;
    resp.status = net::Status::Overloaded;
    resp.error = "no workers joined the fleet";
    server_->complete(ticket, std::move(resp), {});
    return;
  }
  // Load-aware ranking: HRW order, saturated workers (per their last
  // heartbeat) stably demoted. A route that leaves its hash home because
  // of the demotion is a steer.
  std::vector<RankCandidate> cands;
  cands.reserve(routable.size());
  for (const auto& w : routable)
    cands.push_back({w.info.id, w.depth});
  std::vector<std::string> pure;
  pure.reserve(routable.size());
  for (const auto& w : routable) pure.push_back(w.info.id);
  pure = rank_workers(key, std::move(pure));
  std::vector<std::string> ids =
      rank_workers_loaded(key, std::move(cands), opts_.saturation_queue_depth);
  if (!ids.empty() && ids.front() != pure.front()) ++load_steers_;

  Forward f;
  size_t attempts = std::min<size_t>(static_cast<size_t>(opts_.max_attempts),
                                     ids.size());
  ids.resize(attempts);
  f.ranking = std::move(ids);
  f.fwd = std::move(req);
  f.fwd.inner = f.fwd.type;  // Compile, Run, or CompileBatch (the admission
                             // path admits only those plus Forward, which
                             // workers never resend)
  f.fwd.type = net::RequestType::Forward;
  forwards_.emplace(ticket, std::move(f));
  start_attempt(ticket);
}

void Coordinator::start_attempt(uint64_t ticket) {
  auto it = forwards_.find(ticket);
  if (it == forwards_.end()) return;
  if (!server_->live(ticket)) {  // answered deadline_exceeded meanwhile
    forwards_.erase(it);
    return;
  }
  it->second.t_attempt = Clock::now();
  send(ticket);
}

Coordinator::Link& Coordinator::link_for(const net::WorkerInfo& w) {
  Link& l = links_[w.id];
  std::string host = w.host.empty() ? "127.0.0.1" : w.host;
  if (l.host != host || l.port != w.port) {
    l.host = std::move(host);
    l.port = w.port;
    // `w` is the membership's record now, so a mismatch is a
    // re-registration at a new address: what is pending on the old
    // connection fails and retries at the new one.
    if (l.conn) server_->hangup(l.conn);
  }
  return l;
}

void Coordinator::send(uint64_t ticket) {
  Forward& f = forwards_.at(ticket);
  const std::string worker = f.ranking[f.attempt];
  Link& l = link_for(membership_.info(worker));
  if (l.conn == 0) {
    net::Server::Upstream up;
    up.on_frame = [this, worker](uint64_t conn, std::string_view payload) {
      on_reply(worker, conn, payload);
    };
    up.on_close = [this, worker](uint64_t conn) {
      on_link_closed(worker, conn);
    };
    std::string err;
    l.conn = server_->dial(l.host, l.port, std::move(up), &err);
    l.answered = false;
    if (l.conn == 0) {
      transport_failure(ticket);
      return;
    }
  }
  // Wire ids are coordinator-wide: clients' own ids may collide.
  const int64_t wire_id = next_wire_id_++;
  f.fwd.id = wire_id;
  f.fwd.attempt = static_cast<int>(f.attempt);
  server_->send(l.conn, f.fwd);
  if (l.pending.empty()) l.progress = Clock::now();
  l.pending.emplace(wire_id, ticket);
  uint64_t depth = l.pending.size();
  if (depth > channel_inflight_peak_.load(std::memory_order_relaxed))
    channel_inflight_peak_.store(depth, std::memory_order_relaxed);
  arm_forward_timeout(worker);
}

void Coordinator::arm_forward_timeout(const std::string& worker) {
  Link& l = links_.at(worker);
  if (l.timer_armed || opts_.forward_timeout_ms <= 0) return;
  l.timer_armed = true;
  auto due = l.progress + std::chrono::milliseconds(opts_.forward_timeout_ms);
  auto delay = std::chrono::ceil<std::chrono::milliseconds>(due - Clock::now());
  server_->after(std::max(delay, std::chrono::milliseconds(0)), [this, worker] {
    Link& l = links_.at(worker);
    l.timer_armed = false;
    if (l.pending.empty()) return;
    auto silent = Clock::now() - l.progress;
    if (silent >= std::chrono::milliseconds(opts_.forward_timeout_ms)) {
      server_->hangup(l.conn);  // a transport failure of every pending one
      return;
    }
    arm_forward_timeout(worker);
  });
}

void Coordinator::on_reply(const std::string& worker, uint64_t conn,
                           std::string_view payload) {
  Link& l = links_.at(worker);
  if (l.conn != conn) return;
  net::Response resp;
  std::string err;
  if (!net::read_response(payload, &resp, &err)) {
    // The stream cannot be resynchronized: every pending forward fails.
    server_->hangup(conn);
    return;
  }
  if (!l.answered) {
    l.answered = true;
    ++channels_opened_;
    if (l.ever_answered) ++channel_reconnects_;
    l.ever_answered = true;
  }
  l.progress = Clock::now();
  auto pit = l.pending.find(resp.id);
  if (pit == l.pending.end()) return;  // stale id
  const uint64_t ticket = pit->second;
  l.pending.erase(pit);
  auto it = forwards_.find(ticket);
  if (it == forwards_.end()) return;
  if (!server_->live(ticket)) {  // late: deadline_exceeded already sent
    forwards_.erase(it);
    return;
  }
  Forward& f = it->second;
  membership_.note_success(worker);
  if (resp.status == net::Status::Overloaded) {  // busy, not sick
    if (f.fwd.trace)
      f.spans.push_back({"forward", worker + " overloaded",
                         ms_since(f.t_attempt), {}});
    next_attempt(ticket);
    return;
  }
  ++forwarded_;
  if (f.fwd.trace) {
    // Graft the worker's span subtree (carried back in its response)
    // under this hop's forward span; the serving core roots the result,
    // so the final tree covers every fleet hop.
    obs::Span hop{"forward", worker, ms_since(f.t_attempt), {}};
    obs::Span sub;
    if (resp.trace.is_object() && obs::span_from_json(resp.trace, &sub))
      hop.children.push_back(std::move(sub));
    f.spans.push_back(std::move(hop));
  }
  resp.trace = json::Value();  // replaced by the coordinator's own tree
  std::vector<obs::Span> spans = std::move(f.spans);
  forwards_.erase(it);
  server_->complete(ticket, std::move(resp), std::move(spans));
}

void Coordinator::on_link_closed(const std::string& worker, uint64_t conn) {
  Link& l = links_.at(worker);
  if (l.conn != conn) return;
  l.conn = 0;
  // The stream is gone, so every forward pending on it failed; replay
  // them in send order.
  std::vector<std::pair<int64_t, uint64_t>> failed(l.pending.begin(),
                                                   l.pending.end());
  l.pending.clear();
  std::sort(failed.begin(), failed.end());
  for (const auto& [wire_id, ticket] : failed) {
    auto it = forwards_.find(ticket);
    if (it == forwards_.end()) continue;
    if (!server_->live(ticket)) {
      forwards_.erase(it);
      continue;
    }
    transport_failure(ticket);
  }
}

void Coordinator::transport_failure(uint64_t ticket) {
  Forward& f = forwards_.at(ticket);
  if (!f.retried) {
    // One immediate same-worker retry on a fresh connection: a transport
    // error often means a stale session, not a dead worker.
    f.retried = true;
    ++retries_;
    send(ticket);
    return;
  }
  const std::string& worker = f.ranking[f.attempt];
  f.transport_failure = true;
  membership_.note_failure(worker);
  if (f.fwd.trace)
    f.spans.push_back({"forward", worker + " transport_failure",
                       ms_since(f.t_attempt), {}});
  next_attempt(ticket);
}

void Coordinator::next_attempt(uint64_t ticket) {
  auto it = forwards_.find(ticket);
  Forward& f = it->second;
  f.retried = false;
  if (++f.attempt >= f.ranking.size()) {
    net::Response resp;
    if (f.transport_failure) {
      ++worker_lost_;
      resp.status = net::Status::WorkerLost;
      resp.error = "every routable worker for this shard failed; retry";
    } else {
      resp.status = net::Status::Overloaded;
      resp.error = "all routable workers are overloaded; retry later";
    }
    std::vector<obs::Span> spans = std::move(f.spans);
    forwards_.erase(it);
    server_->complete(ticket, std::move(resp), std::move(spans));
    return;
  }
  ++failovers_;
  int64_t backoff = std::min<int64_t>(
      opts_.backoff_ms << (f.attempt - 1), 1'000);
  if (backoff <= 0) {
    start_attempt(ticket);
    return;
  }
  server_->after(std::chrono::milliseconds(backoff),
                 [this, ticket] { start_attempt(ticket); });
}

// ---------------------------------------------------------------------------
// Control plane (loop thread)
// ---------------------------------------------------------------------------

bool Coordinator::control(const net::Request& req, net::Response* resp) {
  if ((req.type == net::RequestType::Register ||
       req.type == net::RequestType::Heartbeat) &&
      !dialable(req.worker.host)) {
    resp->status = net::Status::Error;
    resp->error = "worker host must be an IPv4 literal: " + req.worker.host;
    return true;
  }
  switch (req.type) {
    case net::RequestType::Register: {
      membership_.join(req.worker, clock::now());
      resp->has_peers = true;
      resp->peers = membership_.routable();
      return true;
    }
    case net::RequestType::Heartbeat: {
      membership_.heartbeat(req.worker, req.load, req.leaving, clock::now());
      resp->has_peers = true;
      resp->peers = membership_.routable();
      return true;
    }
    case net::RequestType::CacheProbe: {
      // The coordinator holds no cache; probing it is a clean miss.
      resp->found = false;
      return true;
    }
    default:
      return false;  // cache_fill targets workers
  }
}

void Coordinator::fleet_metrics(json::Value* out) const {
  service::FleetStats fs = fleet_stats();
  json::Value fleet = json::Value::object();
  fleet.set("forwarded", fs.forwarded)
      .set("retries", fs.retries)
      .set("failovers", fs.failovers)
      .set("worker_lost", fs.worker_lost)
      .set("workers_joined", fs.workers_joined)
      .set("workers_left", fs.workers_left)
      .set("workers_dead", fs.workers_dead)
      .set("channels_opened", fs.channels_opened)
      .set("channel_reconnects", fs.channel_reconnects)
      .set("channel_inflight_peak", fs.channel_inflight_peak)
      .set("load_steers", fs.load_steers);
  json::Value workers = json::Value::array();
  for (const Member& m : membership_.snapshot()) {
    json::Value w = json::Value::object();
    w.set("id", m.info.id)
        .set("host", m.info.host)
        .set("port", static_cast<int64_t>(m.info.port))
        .set("health", std::string(health_name(m.health)))
        .set("left", m.left)
        .set("queue_depth", m.load.queue_depth)
        .set("running", m.load.running)
        .set("cache_entries", m.load.cache_entries)
        .set("cache_hits", m.load.cache_hits)
        .set("cache_misses", m.load.cache_misses)
        .set("peer_hits", m.load.peer_hits);
    workers.push(std::move(w));
  }
  fleet.set("workers", std::move(workers));
  out->set("fleet", std::move(fleet));
}

void Coordinator::fleet_stats_extra(json::Value* out) const {
  // Fold each worker's heartbeat-carried histogram bundle bucket-wise
  // into fleet-wide quantiles. Merge is associative and commutative, so
  // the fold order (and heartbeat arrival order) is irrelevant.
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> merged;
  auto slot = [&](const std::string& name) -> obs::HistogramSnapshot* {
    for (auto& [n, s] : merged)
      if (n == name) return &s;
    merged.emplace_back(name, obs::HistogramSnapshot{});
    return &merged.back().second;
  };
  int64_t reporting = 0;
  for (const Member& m : membership_.snapshot()) {
    if (m.load.hist.empty()) continue;
    std::vector<std::pair<std::string, obs::HistogramSnapshot>> set;
    if (!obs::decode_histogram_set(m.load.hist, &set)) continue;
    ++reporting;
    for (auto& [name, snap] : set) slot(name)->merge(snap);
  }
  json::Value fh = json::Value::object();
  fh.set("workers_reporting", reporting);
  for (auto& [name, snap] : merged) fh.set(name, snap.summary_json());
  out->set("fleet_hist", std::move(fh));
}

void Coordinator::tick_main() {
  // Age the health state machine at a fraction of the suspect window so
  // transitions land promptly between heartbeats.
  int64_t interval =
      std::max<int64_t>(opts_.membership.suspect_after_ms / 4, 50);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(tick_mu_);
      tick_cv_.wait_for(lock, std::chrono::milliseconds(interval),
                        [&] { return tick_stop_; });
      if (tick_stop_) return;
    }
    membership_.tick(clock::now());
  }
}

}  // namespace ap::dist

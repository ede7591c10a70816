#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>

#include "dist/shard.h"
#include "net/client.h"
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

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& opts)
    : opts_(opts),
      membership_(opts.membership),
      channels_(static_cast<int>(opts.forward_timeout_ms)) {
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
  no.threads = opts_.threads;
  no.max_queue = opts_.max_queue;
  no.request_timeout_ms = opts_.request_timeout_ms;
  no.drain_timeout_ms = opts_.drain_timeout_ms;
  no.idle_timeout_ms = opts_.idle_timeout_ms;
  no.role = "coordinator";
  no.telemetry = opts_.telemetry;
  no.slow_ms = opts_.slow_ms;
  no.executor = [this](const net::Request& req,
                       std::vector<obs::Span>* spans) {
    return route(req, spans);
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
  ChannelPool::Totals ct = channels_.totals();
  s.channels_opened = ct.connects;
  s.channel_reconnects = ct.reconnects;
  s.channel_inflight_peak = static_cast<int64_t>(ct.inflight_peak);
  return s;
}

// ---------------------------------------------------------------------------
// Routing plane (worker lanes)
// ---------------------------------------------------------------------------

net::Response Coordinator::route(const net::Request& req,
                                 std::vector<obs::Span>* spans) {
  net::Response resp;
  resp.id = req.id;

  // Shard by the content fingerprint — the same key the cache tier uses,
  // so a key's route and its cache home coincide.
  uint64_t key = route_key(req);
  std::vector<Membership::RoutableWorker> routable =
      membership_.routable_with_load();
  if (routable.empty()) {
    resp.status = net::Status::Overloaded;
    resp.error = "no workers joined the fleet";
    return resp;
  }
  // Load-aware ranking: HRW order, saturated workers (per their last
  // heartbeat) stably demoted. A route that leaves its hash home because
  // of the demotion is a steer.
  std::vector<RankCandidate> cands;
  cands.reserve(routable.size());
  for (const auto& w : routable)
    cands.push_back({w.info.id, w.load.queue_depth + w.load.running});
  std::vector<std::string> pure;
  pure.reserve(routable.size());
  for (const auto& w : routable) pure.push_back(w.info.id);
  pure = rank_workers(key, std::move(pure));
  std::vector<std::string> ids =
      rank_workers_loaded(key, std::move(cands), opts_.saturation_queue_depth);
  if (!ids.empty() && ids.front() != pure.front()) ++load_steers_;

  net::Request fwd = req;
  fwd.type = net::RequestType::Forward;
  fwd.inner = req.type;  // Compile, Run, or CompileBatch (the admission
                         // path admits only those plus Forward, which
                         // workers never resend)

  int attempts = std::min<int>(opts_.max_attempts,
                               static_cast<int>(ids.size()));
  bool transport_failure = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const std::string& id = ids[static_cast<size_t>(attempt)];
    const net::WorkerInfo* target = nullptr;
    for (const auto& w : routable)
      if (w.info.id == id) target = &w.info;
    if (!target) continue;

    if (attempt > 0) {
      ++failovers_;
      int64_t backoff = opts_.backoff_ms << (attempt - 1);
      if (backoff > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<int64_t>(backoff, 1'000)));
    }

    fwd.attempt = attempt;
    net::Response out;
    bool delivered = false;
    auto t_fwd = clock::now();
    // Forward over the worker's pooled, pipelined channel — lanes share
    // one connection per worker instead of dialing per request. One
    // immediate same-worker retry after a reset: a transport error often
    // means a stale session, not a dead worker.
    std::shared_ptr<net::Channel> ch = channels_.get(*target);
    for (int try_ = 0; try_ < 2 && !delivered; ++try_) {
      if (try_ == 1) {
        ++retries_;
        ch->reset();
      }
      std::string err;
      net::Request copy = fwd;
      if (ch->call(std::move(copy), &out, &err)) delivered = true;
    }
    if (!delivered) {
      ch->reset();  // don't leave a poisoned stream pooled
      transport_failure = true;
      membership_.note_failure(id);
      if (spans)
        spans->push_back(
            {"forward", id + " transport_failure", ms_since(t_fwd), {}});
      continue;
    }
    membership_.note_success(id);
    if (out.status == net::Status::Overloaded) {  // busy, not sick
      if (spans)
        spans->push_back({"forward", id + " overloaded", ms_since(t_fwd), {}});
      continue;
    }
    ++forwarded_;
    if (spans) {
      // Graft the worker's span subtree (carried back in its response)
      // under this hop's forward span; the coordinator's serving core
      // roots the result, so the final tree covers every fleet hop.
      obs::Span hop{"forward", id, ms_since(t_fwd), {}};
      obs::Span sub;
      if (out.trace.is_object() && obs::span_from_json(out.trace, &sub))
        hop.children.push_back(std::move(sub));
      out.trace = json::Value();  // replaced by the coordinator's own tree
      spans->push_back(std::move(hop));
    }
    out.id = req.id;
    return out;
  }

  if (transport_failure) {
    ++worker_lost_;
    resp.status = net::Status::WorkerLost;
    resp.error = "every routable worker for this shard failed; retry";
  } else {
    resp.status = net::Status::Overloaded;
    resp.error = "all routable workers are overloaded; retry later";
  }
  return resp;
}

// ---------------------------------------------------------------------------
// Control plane (loop thread)
// ---------------------------------------------------------------------------

bool Coordinator::control(const net::Request& req, net::Response* resp) {
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

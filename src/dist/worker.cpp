#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>

#include "dist/shard.h"
#include "net/wire.h"

namespace ap::dist {

Worker::Worker(const WorkerOptions& opts)
    : opts_(opts),
      peer_channels_(static_cast<int>(opts.peer_timeout_ms)) {}

Worker::~Worker() {
  if (server_) {
    begin_drain();
    wait();
  } else {
    // start() failed or never ran; stop the heartbeat thread if any.
    {
      std::lock_guard<std::mutex> lock(hb_mu_);
      hb_stop_ = true;
    }
    hb_cv_.notify_all();
    if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  }
}

bool Worker::start(std::string* err) {
  if (!opts_.cache) {
    if (err) *err = "WorkerOptions.cache is required";
    return false;
  }

  service::Scheduler::Options so;
  so.threads = opts_.threads;
  so.cache = opts_.cache;
  so.telemetry = opts_.telemetry;
  so.unit_cache = opts_.unit_cache;
  if (opts_.coordinator_port > 0) {
    so.peer_lookup = [this](uint64_t key, uint64_t trace_id,
                            obs::Span* span) {
      return peer_lookup(key, trace_id, span);
    };
    so.on_store = [this](uint64_t key, const service::CompileResult& r,
                         uint64_t trace_id) {
      if (opts_.replicate <= 0) return;
      Fill f{key, {}};
      f.req.type = net::RequestType::CacheFill;
      f.req.key = net::format_key(key);
      f.req.payload = service::serialize_result(r);
      f.req.trace_id = trace_id;
      enqueue_fill(std::move(f));
    };
  }
  scheduler_ = std::make_unique<service::Scheduler>(so);

  net::ServerOptions no;
  no.port = opts_.port;
  no.threads = opts_.threads;
  no.max_queue = opts_.max_queue;
  no.request_timeout_ms = opts_.request_timeout_ms;
  no.drain_timeout_ms = opts_.drain_timeout_ms;
  no.idle_timeout_ms = opts_.idle_timeout_ms;
  no.role = "worker";
  no.scheduler = scheduler_.get();
  no.telemetry = opts_.telemetry;
  no.slow_ms = opts_.slow_ms;
  no.control = [this](const net::Request& req, net::Response* resp) {
    return control(req, resp);
  };
  if (opts_.coordinator_port > 0) no.after_reply = [this] { send_fills(); };
  no.extra_metrics = [this](json::Value* out) {
    service::PeerCacheStats ps = peer_stats();
    json::Value peer = json::Value::object();
    peer.set("probes_sent", ps.probes_sent)
        .set("probe_hits", ps.probe_hits)
        .set("fills_sent", ps.fills_sent)
        .set("fills_received", ps.fills_received)
        .set("peer_hits", ps.peer_hits)
        .set("fills_dropped", ps.fills_dropped);
    out->set("peer_cache", std::move(peer));
  };
  server_ = std::make_unique<net::Server>(no);
  if (!server_->start(err)) {
    server_.reset();
    return false;
  }

  id_ = !opts_.id.empty()
            ? opts_.id
            : "w-" + std::to_string(::getpid()) + "-" +
                  std::to_string(server_->port());

  if (opts_.coordinator_port > 0) {
    // Advertise an address, not a name: the coordinator dials workers from
    // its event loop, where a name lookup could block every client.
    if (!net::resolve_ipv4(opts_.host, &host_, err)) return false;
    net::Client client;
    if (!client.connect(opts_.coordinator_host, opts_.coordinator_port, err,
                        static_cast<int>(opts_.peer_timeout_ms)))
      return false;
    net::Request req;
    req.type = net::RequestType::Register;
    req.worker.id = id_;
    req.worker.host = host_;
    req.worker.port = server_->port();
    net::Response resp;
    if (!client.call(std::move(req), &resp, err)) return false;
    if (resp.status != net::Status::Ok) {
      if (err) *err = "registration rejected: " + resp.error;
      return false;
    }
    if (resp.has_peers) adopt_peers(resp.peers);
    heartbeat_thread_ = std::thread([this] { heartbeat_main(); });
  }
  return true;
}

int Worker::port() const { return server_ ? server_->port() : 0; }

int Worker::wake_fd() const { return server_ ? server_->wake_fd() : -1; }

void Worker::begin_drain() {
  // Stop heartbeating, announce the departure, then drain the server.
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (announce_on_stop_.exchange(false) && opts_.coordinator_port > 0)
    send_heartbeat(/*leaving=*/true);
  if (server_) server_->begin_drain();
}

void Worker::stop_hard() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  announce_on_stop_.store(false);  // crash: no leaving announcement
  close_fills();                   // ...and its queued fills are lost
  if (server_) server_->begin_drain();
}

void Worker::wait() {
  if (server_) server_->wait();
  // The drain may have been triggered externally ('q' on wake_fd, the
  // SIGTERM path): the heartbeat thread is still running and no departure
  // was announced — do both now so the coordinator learns of the leave.
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (announce_on_stop_.exchange(false) && opts_.coordinator_port > 0)
    send_heartbeat(/*leaving=*/true);
  // Every lane has finished: what is still queued gets one bounded try.
  send_fills(clock::now() + std::chrono::milliseconds(opts_.peer_timeout_ms));
  close_fills();
}

service::PeerCacheStats Worker::peer_stats() const {
  service::PeerCacheStats s;
  s.probes_sent = probes_sent_.load();
  s.probe_hits = probe_hits_.load();
  s.fills_sent = fills_sent_.load();
  s.fills_received = fills_received_.load();
  s.peer_hits = peer_hits_.load();
  s.fills_dropped = fills_dropped_.load();
  return s;
}

std::vector<net::WorkerInfo> Worker::peers() const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peers_;
}

void Worker::adopt_peers(const std::vector<net::WorkerInfo>& peers) {
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peers_ = peers;
  }
  peer_channels_.retain(peers);
}

// ---------------------------------------------------------------------------
// Control plane: peer-facing cache tier
// ---------------------------------------------------------------------------

bool Worker::control(const net::Request& req, net::Response* resp) {
  switch (req.type) {
    case net::RequestType::CacheProbe: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable cache key";
        return true;
      }
      if (auto hit = opts_.cache->find(key)) {
        resp->found = true;
        resp->payload = service::serialize_result(*hit);
      }
      return true;
    }
    case net::RequestType::CacheFill: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable cache key";
        return true;
      }
      if (auto r = service::deserialize_result(req.payload)) {
        opts_.cache->store(key, *r);
        fills_received_.fetch_add(1);
        return true;
      }
      resp->status = net::Status::Error;
      resp->error = "undecodable cache_fill payload";
      return true;
    }
    default:
      return false;  // register/heartbeat belong to the coordinator
  }
}

// Peers ranked best-first for `key`, excluding this worker.
static std::vector<net::WorkerInfo> ranked_peers(
    const std::vector<net::WorkerInfo>& peers, const std::string& self,
    uint64_t key) {
  std::vector<std::string> ids;
  for (const auto& p : peers)
    if (p.id != self) ids.push_back(p.id);
  ids = rank_workers(key, std::move(ids));
  std::vector<net::WorkerInfo> out;
  for (const auto& id : ids)
    for (const auto& p : peers)
      if (p.id == id) out.push_back(p);
  return out;
}

bool Worker::peer_call(const net::WorkerInfo& peer, net::Request req,
                       net::Response* resp) {
  // No retry: a failed hop falls back to the next peer, a recompute or a
  // dropped fill, and the channel redials on its next call.
  std::string err;
  return peer_channels_.get(peer)->call(std::move(req), resp, &err);
}

std::optional<service::CompileResult> Worker::peer_lookup(uint64_t key,
                                                          uint64_t trace_id,
                                                          obs::Span* span) {
  auto candidates = ranked_peers(peers(), id_, key);
  int budget = std::max(0, opts_.probe_peers);
  for (const auto& peer : candidates) {
    if (budget-- <= 0) break;
    auto t0 = clock::now();
    auto probe_span = [&](const char* outcome) {
      if (span)
        span->children.push_back(
            {"peer:probe", peer.id + " " + outcome,
             std::chrono::duration<double, std::milli>(clock::now() - t0)
                 .count(),
             {}});
    };
    net::Request req;
    req.type = net::RequestType::CacheProbe;
    req.key = net::format_key(key);
    req.trace_id = trace_id;
    net::Response resp;
    probes_sent_.fetch_add(1);
    if (!peer_call(peer, std::move(req), &resp)) {
      probe_span("unreachable");
      continue;
    }
    if (resp.status != net::Status::Ok || !resp.found) {
      probe_span("miss");
      continue;
    }
    if (auto r = service::deserialize_result(resp.payload)) {
      probe_hits_.fetch_add(1);
      peer_hits_.fetch_add(1);
      probe_span("hit");
      return r;
    }
    probe_span("miss");
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Replication: the fill queue
// ---------------------------------------------------------------------------

void Worker::enqueue_fill(Fill f) {
  std::lock_guard<std::mutex> lock(fill_mu_);
  if (fills_closed_) {
    fills_dropped_.fetch_add(1);
    return;
  }
  if (fills_.size() >= kMaxQueuedFills) {
    fills_.pop_front();
    fills_dropped_.fetch_add(1);
  }
  fills_.push_back(std::move(f));
}

void Worker::send_fills(clock::time_point deadline) {
  std::vector<std::string> failed;
  std::unique_lock<std::mutex> lock(fill_mu_);
  while (!fills_.empty()) {
    if (clock::now() >= deadline) {
      fills_dropped_.fetch_add(fills_.size());
      fills_.clear();
      break;
    }
    Fill f = std::move(fills_.front());
    fills_.pop_front();
    ++fills_in_flight_;
    lock.unlock();
    send_fill(f, &failed);
    lock.lock();
    --fills_in_flight_;
    fill_cv_.notify_all();
  }
}

void Worker::send_fill(Fill& f, std::vector<std::string>* failed) {
  auto candidates = ranked_peers(peers(), id_, f.key);
  size_t n = std::min(candidates.size(),
                      static_cast<size_t>(std::max(0, opts_.replicate)));
  for (size_t i = 0; i < n; ++i) {
    const net::WorkerInfo& peer = candidates[i];
    if (std::find(failed->begin(), failed->end(), peer.id) != failed->end())
      continue;
    net::Response resp;
    // The last peer takes the request itself; earlier ones a copy.
    net::Request req = i + 1 < n ? f.req : std::move(f.req);
    if (!peer_call(peer, std::move(req), &resp))
      failed->push_back(peer.id);
    else if (resp.status == net::Status::Ok)
      fills_sent_.fetch_add(1);
  }
}

void Worker::close_fills() {
  std::lock_guard<std::mutex> lock(fill_mu_);
  fills_closed_ = true;
  fills_dropped_.fetch_add(fills_.size());
  fills_.clear();
  fill_cv_.notify_all();
}

void Worker::flush_fills() {
  std::unique_lock<std::mutex> lock(fill_mu_);
  fill_cv_.wait(lock, [&] { return fills_.empty() && fills_in_flight_ == 0; });
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

bool Worker::send_heartbeat(bool leaving) {
  net::Client client;
  std::string err;
  if (!client.connect(opts_.coordinator_host, opts_.coordinator_port, &err,
                      static_cast<int>(opts_.peer_timeout_ms)))
    return false;
  net::Request req;
  req.type = net::RequestType::Heartbeat;
  req.worker.id = id_;
  req.worker.host = host_;
  req.worker.port = server_->port();
  req.leaving = leaving;
  req.load.queue_depth = server_->queue_depth();
  req.load.running = server_->jobs_running();
  service::CacheStats cs = opts_.cache->stats();
  req.load.cache_entries = opts_.cache->memory_entries();
  req.load.cache_hits = cs.hits();
  req.load.cache_misses = cs.misses;
  req.load.peer_hits = peer_hits_.load();
  // Latency summaries ride each heartbeat; the coordinator merges them
  // bucket-wise into fleet-wide quantiles.
  req.load.hist = obs::encode_histogram_set(server_->histogram_snapshots());
  net::Response resp;
  if (!client.call(std::move(req), &resp, &err)) return false;
  if (resp.status != net::Status::Ok) return false;
  if (!leaving && resp.has_peers) adopt_peers(resp.peers);
  return true;
}

void Worker::heartbeat_main() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock,
                      std::chrono::milliseconds(opts_.heartbeat_interval_ms),
                      [&] { return hb_stop_; });
      if (hb_stop_) return;
    }
    send_heartbeat(/*leaving=*/false);  // failures retry next tick
  }
}

}  // namespace ap::dist

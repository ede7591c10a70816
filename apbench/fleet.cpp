// The fleet workloads: client -> coordinator -> worker -> pipeline over
// real loopback sockets. The fleet is assembled here from the public
// classes (dist::Fleet cannot attach a unit cache): one dist::Coordinator
// and two dist::Workers with one compile lane each, a 256-entry result
// cache per worker, replication to one peer.
#include <algorithm>
#include <map>
#include <memory>

#include "apbench/bench.h"
#include "apbench/loadgen.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "incr/unit_cache.h"
#include "net/client.h"

namespace apbench {

namespace {

namespace net = ap::net;
namespace dist = ap::dist;
namespace incr = ap::incr;

// Share of --seconds per phase: a warm-up and the latency phase with one
// client, then the capacity phase with kCapacityClients. A traced run
// splits the latency phase into an untraced and a traced half instead.
constexpr double kWarmupShare = 0.1;
constexpr double kLatencyShare = 0.45;
constexpr size_t kCapacityClients = 2;
// Set-up is repeated at least kMinSetupReps times and until kMinSetupSeconds
// of set-up have been timed, at most kMaxSetupReps times: the fleet start
// alone takes well under a millisecond, and its median needs many samples.
constexpr int kMinSetupReps = 9;
constexpr int kMaxSetupReps = 101;
constexpr double kMinSetupSeconds = 1.0;
// lat_p99_ms is the median of the p99s of this many slices of the latency
// phase, and capacity_ops_s the median of the throughputs of this many
// equal time slices of the capacity phase.
constexpr size_t kWindows = 9;
// Traced requests whose spans and server-side trees go to the trace file.
constexpr size_t kKeptRequestSpans = 2000;
constexpr size_t kKeptTrees = 64;

constexpr int kWorkers = 2;
constexpr size_t kResultCacheEntries = 256;
// 36 matrix jobs + 156 salted variants: with replicate=1 every worker holds
// the whole set, and it fits the 256-entry memory tier with no eviction.
constexpr size_t kWarmKeys = 192;
constexpr uint64_t kWarmSetSeed = 192;
constexpr int kEditRun = 20;

class BenchFleet {
 public:
  explicit BenchFleet(bool unit_caches) : unit_caches_(unit_caches) {}

  bool start(std::string* err) {
    dist::CoordinatorOptions co;
    co.threads = kWorkers;
    co.membership = {/*suspect_after_ms=*/1'000, /*dead_after_ms=*/3'000};
    coordinator_ = std::make_unique<dist::Coordinator>(co);
    if (!coordinator_->start(err)) return false;
    for (int i = 0; i < kWorkers; ++i) {
      caches_.push_back(
          std::make_unique<service::ResultCache>(kResultCacheEntries));
      if (unit_caches_) units_.push_back(std::make_unique<incr::UnitCache>());
      dist::WorkerOptions wo;
      wo.id = "w" + std::to_string(i);
      wo.threads = 1;
      wo.coordinator_port = coordinator_->port();
      wo.heartbeat_interval_ms = 200;
      wo.cache = caches_.back().get();
      wo.unit_cache = unit_caches_ ? units_.back().get() : nullptr;
      workers_.push_back(std::make_unique<dist::Worker>(wo));
      if (!workers_.back()->start(err)) return false;
      ids_.push_back(wo.id);
    }
    return true;
  }

  int port() const { return coordinator_->port(); }
  dist::Coordinator& coordinator() { return *coordinator_; }
  const std::vector<std::string>& ids() const { return ids_; }
  int worker_port(const std::string& id) const {
    for (size_t i = 0; i < ids_.size(); ++i)
      if (ids_[i] == id) return workers_[i]->port();
    return 0;
  }
  service::CacheStats cache_stats() const {
    service::CacheStats sum;
    for (const auto& c : caches_) {
      service::CacheStats s = c->stats();
      sum.memory_hits += s.memory_hits;
      sum.disk_hits += s.disk_hits;
      sum.misses += s.misses;
      sum.evictions += s.evictions;
    }
    return sum;
  }

 private:
  bool unit_caches_;
  // Declaration order is teardown order reversed: workers drain first,
  // while the caches they point at and the coordinator still exist.
  std::unique_ptr<dist::Coordinator> coordinator_;
  std::vector<std::unique_ptr<service::ResultCache>> caches_;
  std::vector<std::unique_ptr<incr::UnitCache>> units_;
  std::vector<std::unique_ptr<dist::Worker>> workers_;
  std::vector<std::string> ids_;
};

bool connect_client(net::Client& c, int port, std::string* err) {
  return c.connect(port, err, 60'000) && c.negotiate(err);
}

// One blocking call; false unless it came back Ok.
bool call_ok(net::Client& c, net::Request req, net::Response* resp) {
  std::string err;
  return c.call(std::move(req), resp, &err) && resp->status == net::Status::Ok;
}

// The request stream of one workload, generated on demand from the seed.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}
  virtual ~Stream() = default;

  // Index into inputs() of the next request's input.
  virtual uint32_t next() = 0;
  const std::vector<CompileInput>& inputs() const { return inputs_; }

 protected:
  uint32_t add(CompileInput in) {
    inputs_.push_back(std::move(in));
    return static_cast<uint32_t>(inputs_.size() - 1);
  }
  int random_job() { return static_cast<int>(rng_.below(matrix().size())); }

  Rng rng_;
  std::vector<CompileInput> inputs_;
  int salt_ = 0;
};

// fleet_cold: every request a fresh one-unit edit of a random matrix job,
// so it misses every cache tier.
class ColdStream : public Stream {
 public:
  using Stream::Stream;

  uint32_t next() override {
    return add(random_edit(rng_, random_job(), ++salt_));
  }
};

// fleet_warm: Zipf(1.0) over a working set of the 36 matrix jobs and 156
// salted variants. The set and which keys are hot are the same for every
// seed (drawn from a fixed one), so seeds vary the draws, not the mix.
class WarmStream : public Stream {
 public:
  explicit WarmStream(uint64_t seed) : Stream(seed) {
    Rng fixed(kWarmSetSeed);
    for (int j = 0; j < static_cast<int>(matrix().size()); ++j) add({j, "", 0});
    while (inputs_.size() < kWarmKeys) {
      int job = static_cast<int>(fixed.below(matrix().size()));
      add(random_edit(fixed, job, static_cast<int>(inputs_.size())));
    }
    for (uint32_t i = 0; i < kWarmKeys; ++i) rank_to_key_.push_back(i);
    for (size_t i = kWarmKeys - 1; i > 0; --i)
      std::swap(rank_to_key_[i], rank_to_key_[fixed.below(i + 1)]);
    double sum = 0;
    for (size_t r = 0; r < kWarmKeys; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  uint32_t next() override {
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform()) -
        cdf_.begin());
    return rank_to_key_[std::min(r, kWarmKeys - 1)];
  }

 private:
  std::vector<uint32_t> rank_to_key_;
  std::vector<double> cdf_;
};

// edit_loop: runs of kEditRun one-unit edits on one (app, config), each
// the pristine source plus one edit under a fresh salt.
class EditStream : public Stream {
 public:
  using Stream::Stream;

  uint32_t next() override {
    if (left_ == 0) {
      job_ = random_job();
      left_ = kEditRun;
    }
    --left_;
    return add(random_edit(rng_, job_, ++salt_));
  }

 private:
  int job_ = 0;
  int left_ = 0;
};

enum class Kind { Cold, Warm, Edit };

std::unique_ptr<Stream> make_stream(Kind kind, uint64_t seed) {
  switch (kind) {
    case Kind::Cold: return std::make_unique<ColdStream>(seed);
    case Kind::Warm: return std::make_unique<WarmStream>(seed);
    case Kind::Edit: break;
  }
  return std::make_unique<EditStream>(seed);
}

// Digest of the first kDigestInputs inputs a fresh stream draws, however
// many a run gets through.
uint64_t stream_digest(Kind kind, uint64_t seed) {
  auto stream = make_stream(kind, seed);
  uint64_t h = 0;
  for (size_t i = 0; i < kDigestInputs; ++i)
    h = fold_input(h, stream->inputs()[stream->next()]);
  return h;
}

// Brings a started fleet to the workload's measured state.
bool preload(BenchFleet& fleet, Kind kind, const Stream& stream,
             Report& rep) {
  std::vector<CompileInput> load;
  if (kind == Kind::Warm) load = stream.inputs();
  if (kind == Kind::Edit)
    for (int j = 0; j < static_cast<int>(matrix().size()); ++j)
      load.push_back({j, "", 0});
  if (load.empty()) return true;
  net::Client c;
  std::string err;
  if (!connect_client(c, fleet.port(), &err)) {
    rep.check(false, "preload connect: " + err);
    return false;
  }
  for (const auto& in : load) {
    net::Response resp;
    if (!call_ok(c, compile_request(in), &resp)) {
      rep.check(false, "preload compile failed");
      return false;
    }
  }
  return true;
}

// Sequential calls into the fleet for the traced run: net.ping_rtt_us,
// dist.forward_us (a warm call through the coordinator minus the same
// call sent straight to the key's owner), and each sampled input's
// unloaded end-to-end latency, which is returned.
std::vector<double> probe_fleet(BenchFleet& fleet,
                                const std::vector<CompileInput>& sample,
                                SpanLog& spans, Report& rep) {
  std::vector<double> unloaded;
  std::string err;
  net::Client via;
  std::map<std::string, std::unique_ptr<net::Client>> direct;
  bool ok = connect_client(via, fleet.port(), &err);
  for (const auto& id : fleet.ids()) {
    auto c = std::make_unique<net::Client>();
    ok = ok && connect_client(*c, fleet.worker_port(id), &err);
    direct[id] = std::move(c);
  }
  if (!ok) {
    rep.check(false, "probe connect: " + err);
    return unloaded;
  }

  std::vector<double> ping_us;
  for (int i = 0; i < 50; ++i) {
    net::Request req;
    req.type = net::RequestType::Ping;
    net::Response resp;
    auto t0 = Clock::now();
    bool pinged = call_ok(*direct.begin()->second, std::move(req), &resp);
    ping_us.push_back(ms_since(t0) * 1000);
    rep.check(pinged, "ping failed");
  }
  rep.set_sample("net.ping_rtt_us", median(ping_us), "us", ping_us);

  std::vector<double> forward_us;
  for (size_t i = 0; i < sample.size(); ++i) {
    net::Request req = compile_request(sample[i]);
    uint64_t key =
        service::cache_key(req.source, req.annotations, req.options);
    const std::string owner = dist::rank_workers(key, fleet.ids()).front();
    net::Response resp;
    {
      Scope s(spans, "probe.unloaded", i);
      auto t0 = Clock::now();
      rep.check(call_ok(via, req, &resp), "unloaded probe call failed");
      unloaded.push_back(ms_since(t0));
    }
    for (int r = 0; r < 3; ++r) {
      auto t0 = Clock::now();
      {
        Scope s(spans, "probe.via_coordinator", i);
        rep.check(call_ok(via, req, &resp), "forward probe call failed");
      }
      auto t1 = Clock::now();
      {
        Scope s(spans, "probe.direct", i);
        rep.check(call_ok(*direct[owner], req, &resp),
                  "direct probe call failed");
      }
      forward_us.push_back((ms_between(t0, t1) - ms_since(t1)) * 1000);
    }
  }
  rep.set_sample("dist.forward_us", median(forward_us), "us", forward_us);
  return unloaded;
}

// What one phase's replies add up to.
struct PhaseStats {
  std::vector<double> latency_ms;  // of the successful replies
  std::vector<double> lag_ms;      // generator turnaround before each send
  size_t ok = 0;
  size_t unit_hits = 0, unit_misses = 0, unit_peer_hits = 0;
};

void run_fleet(Kind kind, const RunConfig& cfg, Report& rep,
               SpanLog& spans) {
  std::unique_ptr<Stream> stream = make_stream(kind, cfg.seed);
  rep.digest = stream_digest(kind, cfg.seed);

  // Set-up, repeated: a fresh fleet brought to the measured state.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<BenchFleet> fleet;
  for (int r = 0; r < kMaxSetupReps &&
                  (r < kMinSetupReps || setup_total_s < kMinSetupSeconds);
       ++r) {
    fleet.reset();
    auto t0 = Clock::now();
    fleet = std::make_unique<BenchFleet>(kind == Kind::Edit);
    std::string err;
    if (!fleet->start(&err)) {
      rep.check(false, "fleet start: " + err);
      return;
    }
    if (!preload(*fleet, kind, *stream, rep)) return;
    setup_s.push_back(ms_since(t0) / 1000);
    setup_total_s += setup_s.back();
  }

  LoadGen lg(fleet->port(), kCapacityClients);
  std::string err;
  if (!lg.connect(&err)) {
    rep.check(false, "load generator connect: " + err);
    return;
  }
  // Per input, the first reply's digest; any later reply must match it.
  std::vector<OutputDigest> got;
  std::vector<bool> answered;
  std::map<std::string, size_t> failures;
  std::vector<PhaseStats> stats(4);
  // Successful replies per time slice of the capacity phase.
  std::vector<double> busy_ok(kWindows, 0);
  const double busy_window_ms =
      (1 - kWarmupShare - kLatencyShare) * cfg.seconds * 1000 / kWindows;
  double busy_start_ms = 0;
  size_t phase_id = 0;
  bool traced = false;
  auto next = [&](net::Request* req) {
    uint32_t i = stream->next();
    *req = compile_request(stream->inputs()[i]);
    req->trace = traced;
    return i;
  };
  auto done = [&](const LoadGen::Outcome& o) {
    ++rep.attempted;
    PhaseStats& ps = stats[phase_id];
    // Samples are kept for the latency phases only, so the bench's own
    // memory does not grow with the capacity it measures.
    const bool sampled = phase_id == 1 || phase_id == 2;
    if (sampled) ps.lag_ms.push_back(o.sent_ms - o.ready_ms);
    if (!o.ok()) {
      ++rep.failed;
      const char* why = o.transport_failed ? "transport failure"
                        : !o.resp          ? "unanswered"
                                 : net::status_name(o.resp->status);
      failures[std::string(why) + " in phase " + std::to_string(phase_id)]++;
      return;
    }
    ++ps.ok;
    if (sampled) ps.latency_ms.push_back(o.latency_ms());
    if (phase_id == 3) {
      auto w = static_cast<size_t>((o.done_ms - busy_start_ms) / busy_window_ms);
      ++busy_ok[std::min(w, kWindows - 1)];
    }
    const service::CompileResult& r = o.resp->result;
    ps.unit_hits += r.unit_hits;
    ps.unit_misses += r.unit_misses;
    ps.unit_peer_hits += r.unit_peer_hits;
    if (got.size() <= o.input) {
      got.resize(o.input + 1);
      answered.resize(o.input + 1);
    }
    OutputDigest d = digest_of(r);
    if (answered[o.input] && !(got[o.input] == d)) {
      ++rep.failed;
      ++failures["inconsistent replies in phase " + std::to_string(phase_id)];
    }
    got[o.input] = d;
    answered[o.input] = true;
    if (traced) {
      if (spans.kept_trees() < kKeptTrees && !o.resp->trace.is_null())
        spans.keep_tree(o.resp->trace.dump());
      if (ps.ok <= kKeptRequestSpans) {
        spans.add("loadgen.lag", ps.ok, -1, lg.at(o.ready_ms),
                  lg.at(o.sent_ms));
        spans.add("request", ps.ok, -1, lg.at(o.sent_ms), lg.at(o.done_ms));
      }
    }
  };
  auto phase = [&](size_t id, double share, size_t clients) {
    phase_id = id;
    return lg.run({share * cfg.seconds, clients}, next, done);
  };

  phase(0, kWarmupShare, 1);
  service::CacheStats cache0 = fleet->cache_stats();
  service::FleetStats fleet0 = fleet->coordinator().fleet_stats();
  std::vector<LoadGen::PhaseResult> timed;
  if (!cfg.trace) {
    timed.push_back(phase(1, kLatencyShare, 1));
  } else {
    timed.push_back(phase(1, (1 - kWarmupShare) / 2, 1));
    traced = true;
    timed.push_back(phase(2, (1 - kWarmupShare) / 2, 1));
    traced = false;
  }
  service::CacheStats cache1 = fleet->cache_stats();
  service::FleetStats fleet1 = fleet->coordinator().fleet_stats();
  if (!cfg.trace) {
    busy_start_ms = lg.now_ms();
    phase(3, 1 - kWarmupShare - kLatencyShare, kCapacityClients);
  }

  // Every input's replies are checked against an in-process, cache-free
  // compile of it (wire == in-process; on edit_loop also warm == cold).
  auto ref = reference_outputs(stream->inputs(), bench_lanes());
  for (size_t i = 0; i < got.size(); ++i) {
    if (answered[i] && !(got[i] == ref[i])) {
      ++rep.failed;
      ++failures["wrong output"];
    }
  }
  for (const auto& [why, n] : failures)
    rep.check(false, std::to_string(n) + " x " + why);

  double hit_frac =
      ratio(static_cast<double>(cache1.hits() - cache0.hits()),
            static_cast<double>(cache1.lookups() - cache0.lookups()));
  uint64_t evictions = cache1.evictions - cache0.evictions;
  if (kind == Kind::Warm) {
    rep.check(hit_frac >= 0.99, "fleet_warm hit fraction below 0.99");
    rep.check(evictions == 0, "fleet_warm evicted entries");
  }
  if (kind == Kind::Cold)
    rep.check(hit_frac <= 0.01, "fleet_cold hit fraction above 0.01");

  if (!cfg.trace) {
    const std::vector<double>& lat = stats[1].latency_ms;
    rep.set_sample("setup_s", median(setup_s), "s", setup_s);
    rep.set_sample("lat_p50_ms", quantile(lat, 0.5), "ms", lat);
    rep.set_sample("lat_p99_ms", windowed_quantile(lat, 0.99, kWindows), "ms",
                   lat);
    std::vector<double> rates;
    for (double n : busy_ok) rates.push_back(n * 1000 / busy_window_ms);
    rep.set_sample("capacity_ops_s", median(rates), "1/s", rates);
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<double> lag;
  double cpu = 0, wall = 0;
  PhaseStats sum;
  for (size_t p = 1; p <= 2; ++p) {
    const PhaseStats& ps = stats[p];
    lag.insert(lag.end(), ps.lag_ms.begin(), ps.lag_ms.end());
    cpu += timed[p - 1].cpu_s;
    wall += timed[p - 1].seconds();
    sum.ok += ps.ok;
    sum.unit_hits += ps.unit_hits;
    sum.unit_misses += ps.unit_misses;
    sum.unit_peer_hits += ps.unit_peer_hits;
  }
  rep.set_sample("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms", lag);
  rep.set("loadgen.cpu_frac", ratio(cpu, wall), "frac");
  rep.set("trace.overhead_frac",
          ratio(median(stats[2].latency_ms), median(stats[1].latency_ms)) - 1,
          "frac");
  rep.set("service.hit_frac", hit_frac, "frac");
  rep.set("service.evictions", static_cast<double>(evictions), "count");
  rep.set("dist.forwarded",
          static_cast<double>(fleet1.forwarded - fleet0.forwarded), "count");
  rep.set("dist.failovers",
          static_cast<double>(fleet1.failovers - fleet0.failovers), "count");
  double hits = static_cast<double>(sum.unit_hits);
  double misses = static_cast<double>(sum.unit_misses);
  rep.set("dist.unit_peer_frac",
          ratio(static_cast<double>(sum.unit_peer_hits), hits), "frac");
  rep.set("incr.unit_hit_frac", ratio(hits, hits + misses), "frac");
  rep.set("incr.invalidated_per_edit",
          ratio(misses, static_cast<double>(sum.ok)), "count");

  std::vector<CompileInput> sample = probe_sample(kind != Kind::Warm, cfg.seed);
  std::vector<LayerTimes> layers =
      probe_layers(sample, cfg.seconds, cfg.seed, spans, rep);
  std::vector<double> unloaded = probe_fleet(*fleet, sample, spans, rep);

  // The blocking path of one request: the codec on both hops, the result
  // cache lookup and, on a miss, the compile, the store and the
  // replication payload. What it leaves of the unloaded latency (sockets,
  // queues, thread hand-offs, peer round trips) is the uncovered rest.
  std::vector<double> covered, uncovered;
  for (size_t i = 0; i < layers.size() && i < unloaded.size(); ++i) {
    const LayerTimes& t = layers[i];
    double path = 2 * t.codec + t.find;
    if (kind == Kind::Cold) path += t.pipeline + t.store + t.serialize;
    if (kind == Kind::Edit) path += t.pipeline_incr + t.store + t.serialize;
    covered.push_back(ratio(path, unloaded[i]));
    uncovered.push_back(unloaded[i] - path);
  }
  rep.set_sample("trace.covered_frac", median(covered), "frac", covered);
  rep.set_sample("trace.uncovered_ms", median(uncovered), "ms", uncovered);
}

}  // namespace

void probe_fresh_fleet(const std::vector<CompileInput>& sample, SpanLog& spans,
                       Report& rep) {
  BenchFleet fleet(false);
  std::string err;
  if (!fleet.start(&err)) {
    rep.check(false, "probe fleet start: " + err);
    return;
  }
  probe_fleet(fleet, sample, spans, rep);
}

bool run_fleet(const RunConfig& cfg, Report& rep, SpanLog& spans) {
  if (cfg.workload == "fleet_cold") run_fleet(Kind::Cold, cfg, rep, spans);
  else if (cfg.workload == "fleet_warm") run_fleet(Kind::Warm, cfg, rep, spans);
  else if (cfg.workload == "edit_loop") run_fleet(Kind::Edit, cfg, rep, spans);
  else return false;
  return true;
}

}  // namespace apbench

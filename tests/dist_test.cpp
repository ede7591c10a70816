// Unit tests for the distributed fleet (src/dist): rendezvous-hash
// stability under membership churn, the per-worker health state machine
// under dropped heartbeats and transport failures, coordinator failover
// when a worker dies mid-batch, the loop-driven forward's retry, deadline
// and timeout paths against scripted stand-in workers, and the peer cache
// tier's probe/fill messages avoiding recompute.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/fleet.h"
#include "dist/membership.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "driver/pipeline.h"
#include "fir/unparse.h"
#include "incr/fingerprint.h"
#include "net/binproto.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/cache.h"
#include "suite/suite.h"

namespace ap {
namespace {

using std::chrono::milliseconds;
using time_point = std::chrono::steady_clock::time_point;

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

std::vector<std::string> fleet_ids(int n) {
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i) {
    ids.emplace_back("w");
    ids.back() += std::to_string(i);
  }
  return ids;
}

// Deterministic spread of content keys (mirrors real cache keys only in
// being 64-bit and well mixed).
std::vector<uint64_t> sample_keys(size_t n) {
  std::vector<uint64_t> keys;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(x);
  }
  return keys;
}

TEST(Shard, ScoreIsDeterministicAndIdSensitive) {
  EXPECT_EQ(dist::hrw_score(42, "w1"), dist::hrw_score(42, "w1"));
  EXPECT_NE(dist::hrw_score(42, "w1"), dist::hrw_score(42, "w2"));
  EXPECT_NE(dist::hrw_score(42, "w1"), dist::hrw_score(43, "w1"));
}

TEST(Shard, LeaveRemapsOnlyTheDepartedWorkersKeys) {
  auto ids = fleet_ids(5);
  auto keys = sample_keys(500);

  std::map<uint64_t, std::vector<std::string>> before;
  for (uint64_t k : keys) before[k] = dist::rank_workers(k, ids);

  // Remove w2. For every key, the surviving workers' relative order must
  // be untouched — the new ranking is exactly the old one minus w2. In
  // particular a key whose owner was not w2 keeps its owner.
  std::vector<std::string> survivors;
  for (const auto& id : ids)
    if (id != "w2") survivors.push_back(id);

  size_t remapped = 0;
  for (uint64_t k : keys) {
    auto after = dist::rank_workers(k, survivors);
    std::vector<std::string> expect;
    for (const auto& id : before[k])
      if (id != "w2") expect.push_back(id);
    ASSERT_EQ(after, expect) << "key " << k;
    if (before[k][0] == "w2") {
      ++remapped;
      EXPECT_EQ(after[0], before[k][1]);  // failover target takes over
    } else {
      EXPECT_EQ(after[0], before[k][0]);
    }
  }
  // ~1/5 of the keyspace belonged to w2; allow generous slack.
  EXPECT_GT(remapped, keys.size() / 10);
  EXPECT_LT(remapped, keys.size() / 3);
}

TEST(Shard, JoinStealsOnlyWhatTheNewWorkerWins) {
  auto ids = fleet_ids(4);
  auto keys = sample_keys(500);

  std::map<uint64_t, std::string> owner_before;
  for (uint64_t k : keys) owner_before[k] = dist::rank_workers(k, ids)[0];

  auto grown = ids;
  grown.push_back("w9");
  size_t stolen = 0;
  for (uint64_t k : keys) {
    auto after = dist::rank_workers(k, grown);
    if (after[0] == "w9")
      ++stolen;
    else
      EXPECT_EQ(after[0], owner_before[k]) << "key " << k;
  }
  // w9 should win roughly 1/5 of the keyspace.
  EXPECT_GT(stolen, keys.size() / 10);
  EXPECT_LT(stolen, keys.size() / 3);
}

TEST(Shard, LoadAwareRankingStablyDemotesSaturatedWorkers) {
  auto ids = fleet_ids(5);
  const uint64_t key = 42;
  auto pure = dist::rank_workers(key, ids);

  // Nobody saturated: identical to pure rendezvous order.
  std::vector<dist::RankCandidate> cands;
  for (const auto& id : ids) cands.push_back({id, 0});
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), pure);

  // saturation <= 0 disables the demotion no matter the load.
  for (auto& c : cands) c.load = 1'000;
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 0), pure);

  // The hash winner saturates: it moves behind every unsaturated worker
  // while the others keep their relative order — so failover targets
  // (and their warm caches) are unchanged.
  cands.clear();
  for (const auto& id : ids) cands.push_back({id, id == pure[0] ? 20 : 0});
  std::vector<std::string> expect(pure.begin() + 1, pure.end());
  expect.push_back(pure[0]);
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), expect);

  // Two saturated (load == saturation counts): both demoted, rendezvous
  // order preserved inside both groups.
  cands.clear();
  for (const auto& id : ids)
    cands.push_back({id, (id == pure[0] || id == pure[2]) ? 8 : 7});
  expect = {pure[1], pure[3], pure[4], pure[0], pure[2]};
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), expect);
}

// ---------------------------------------------------------------------------
// Membership health state machine (all time injected)
// ---------------------------------------------------------------------------

net::WorkerInfo winfo(const std::string& id, int port = 7000) {
  return {id, "127.0.0.1", port};
}

std::vector<std::string> routable_ids(const dist::Membership& m) {
  std::vector<std::string> out;
  for (const auto& w : m.routable()) out.push_back(w.id);
  return out;
}

dist::Health health_of(const dist::Membership& m, const std::string& id) {
  for (const auto& member : m.snapshot())
    if (member.info.id == id) return member.health;
  ADD_FAILURE() << "no member " << id;
  return dist::Health::Dead;
}

TEST(Membership, DroppedHeartbeatsAgeAliveToSuspectToDead) {
  dist::Membership m({/*suspect_after_ms=*/2'000, /*dead_after_ms=*/6'000});
  time_point t0{};
  m.join(winfo("a"), t0);
  m.join(winfo("b", 7001), t0);

  // Fresh: both alive and routable.
  m.tick(t0 + milliseconds(500));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));

  // `a` heartbeats, `b` goes silent.
  m.heartbeat(winfo("a"), {}, /*leaving=*/false, t0 + milliseconds(2'500));
  m.tick(t0 + milliseconds(3'000));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(health_of(m, "b"), dist::Health::Suspect);
  // Suspect workers remain routable — they rank where they rank.
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));

  // Past dead_after_ms of silence `b` is dead and unroutable.
  m.heartbeat(winfo("a"), {}, false, t0 + milliseconds(6'200));
  m.tick(t0 + milliseconds(6'500));
  EXPECT_EQ(health_of(m, "b"), dist::Health::Dead);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));
  EXPECT_EQ(m.died(), 1u);

  // A late heartbeat revives it.
  m.heartbeat(winfo("b", 7001), {}, false, t0 + milliseconds(7'000));
  EXPECT_EQ(health_of(m, "b"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));
}

TEST(Membership, TransportFailuresEscalateAndSuccessRevives) {
  dist::Membership m({});
  time_point t0{};
  m.join(winfo("a"), t0);

  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Suspect);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));

  // A success while merely Suspect revives and resets the count.
  m.note_success("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Suspect);

  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Dead);
  EXPECT_TRUE(routable_ids(m).empty());
  EXPECT_EQ(m.died(), 1u);

  // Dead is sticky against a straggling success — only the worker's own
  // heartbeat resurrects it.
  m.note_success("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Dead);
  m.heartbeat(winfo("a"), {}, false, t0 + milliseconds(100));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));
}

TEST(Membership, LeavingHeartbeatIsGracefulDeparture) {
  dist::Membership m({});
  time_point t0{};
  m.join(winfo("a"), t0);
  m.join(winfo("b", 7001), t0);
  EXPECT_EQ(m.joined(), 2u);

  m.heartbeat(winfo("a"), {}, /*leaving=*/true, t0 + milliseconds(100));
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"b"}));
  EXPECT_EQ(m.left(), 1u);
  // The record is kept (a rejoin under the same id is recognized)...
  EXPECT_EQ(m.snapshot().size(), 2u);
  // ...and a re-register makes it routable again.
  m.join(winfo("a"), t0 + milliseconds(200));
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------------
// Live fleet: failover and the peer cache tier
// ---------------------------------------------------------------------------

// Distinct tiny programs: distinct content keys spread across the ring.
suite::BenchmarkApp tiny_app(int i) {
  suite::BenchmarkApp app;
  app.name = "TINY" + std::to_string(i);
  app.source = "      PROGRAM TINY\n"
               "      REAL A(10)\n"
               "      INTEGER I\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = I * " + std::to_string(i + 2) + ".0\n"
               "   10 CONTINUE\n"
               "      END\n";
  return app;
}

net::Request compile_request(const suite::BenchmarkApp& app) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = app.name;
  req.source = app.source;
  req.annotations = app.annotations;
  return req;
}

TEST(DistFleet, FailoverSurvivesWorkerCrashMidBatch) {
  dist::FleetOptions fo;
  fo.workers = 3;
  fo.worker_threads = 1;
  fo.heartbeat_interval_ms = 100;
  // Long heartbeat timeouts: the crash must be discovered through
  // transport failures on the routing plane, not the timeout sweep.
  fo.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Fleet fleet(fo);
  std::string err;
  ASSERT_TRUE(fleet.start(&err)) << err;

  // Crash one worker without any announcement.
  fleet.worker(0)->stop_hard();
  fleet.worker(0)->wait();

  // Every request in the batch must still succeed: requests sharded onto
  // the dead worker hit a transport failure and fail over along the hash
  // ranking.
  net::Client client;
  ASSERT_TRUE(client.connect(fleet.coordinator_port(), &err, 120'000)) << err;
  for (int i = 0; i < 24; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err))
        << "job " << i << ": " << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << "job " << i << ": "
                                            << resp.error;
    ASSERT_TRUE(resp.has_result);
    EXPECT_TRUE(resp.result.ok);
  }

  // With 24 keys over 3 workers it is (1 - (2/3)^24) certain some routed
  // to the dead one first, so the health plane must have noticed.
  service::FleetStats fs = fleet.coordinator()->fleet_stats();
  EXPECT_GE(fs.failovers, 1u);
  EXPECT_GE(fs.workers_dead, 1u);
  bool dead_seen = false;
  for (const auto& member : fleet.coordinator()->membership().snapshot())
    if (member.health == dist::Health::Dead) dead_seen = true;
  EXPECT_TRUE(dead_seen);

  fleet.drain_all();
}

TEST(DistFleet, CacheProbeHitAvoidsRecompute) {
  // A standalone worker answers the peer cache-tier messages directly:
  // probe a compiled key, fill a foreign key, and observe that the fill
  // is served as a cache hit (no recompute) afterwards.
  service::ResultCache cache(64);
  dist::WorkerOptions wo;
  wo.id = "solo";
  wo.threads = 1;
  wo.cache = &cache;
  dist::Worker worker(wo);
  std::string err;
  ASSERT_TRUE(worker.start(&err)) << err;

  net::Client client;
  ASSERT_TRUE(client.connect(worker.port(), &err, 120'000)) << err;

  // Compile once; the result now lives under its content key.
  suite::BenchmarkApp app = tiny_app(1);
  net::Response compiled;
  ASSERT_TRUE(client.call(compile_request(app), &compiled, &err)) << err;
  ASSERT_EQ(compiled.status, net::Status::Ok) << compiled.error;
  EXPECT_FALSE(compiled.result.cache_hit);
  uint64_t key = service::cache_key(app.source, app.annotations, {});

  // cache_probe for that key returns the serialized result.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = net::format_key(key);
  net::Response presp;
  ASSERT_TRUE(client.call(std::move(probe), &presp, &err)) << err;
  ASSERT_EQ(presp.status, net::Status::Ok) << presp.error;
  ASSERT_TRUE(presp.found);
  auto decoded = service::deserialize_result(presp.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->program_text, compiled.result.program_text);

  // Probing a key nobody compiled is a clean miss, not an error.
  net::Request miss;
  miss.type = net::RequestType::CacheProbe;
  miss.key = net::format_key(key + 1);
  ASSERT_TRUE(client.call(std::move(miss), &presp, &err)) << err;
  EXPECT_EQ(presp.status, net::Status::Ok);
  EXPECT_FALSE(presp.found);

  // cache_fill plants a foreign result; compiling that source afterwards
  // is a pure cache hit — the fill did the work.
  suite::BenchmarkApp other = tiny_app(2);
  uint64_t other_key = service::cache_key(other.source, other.annotations, {});
  net::Request fill;
  fill.type = net::RequestType::CacheFill;
  fill.key = net::format_key(other_key);
  fill.payload = service::serialize_result(*decoded);
  net::Response fresp;
  ASSERT_TRUE(client.call(std::move(fill), &fresp, &err)) << err;
  ASSERT_EQ(fresp.status, net::Status::Ok) << fresp.error;

  net::Response again;
  ASSERT_TRUE(client.call(compile_request(other), &again, &err)) << err;
  ASSERT_EQ(again.status, net::Status::Ok) << again.error;
  EXPECT_TRUE(again.result.cache_hit);
  // The planted payload is what comes back — no recompute happened.
  EXPECT_EQ(again.result.program_text, decoded->program_text);

  EXPECT_GE(worker.peer_stats().fills_received, 1u);

  worker.begin_drain();
  worker.wait();
}

// A cache_fill payload is untrusted bytes decoded on the worker's event
// loop, which has no catch. One whose print_dump length claims 2^64-1
// bytes must draw an `error` reply, not take the worker down, and the
// worker keeps serving on the same connection.
TEST(DistFleet, OversizedCacheFillLengthIsAnErrorNotACrash) {
  service::ResultCache cache(64);
  dist::WorkerOptions wo;
  wo.id = "solo";
  wo.threads = 1;
  wo.cache = &cache;
  dist::Worker worker(wo);
  std::string err;
  ASSERT_TRUE(worker.start(&err)) << err;
  net::Client client;
  ASSERT_TRUE(client.connect(worker.port(), &err, 120'000)) << err;

  service::CompileResult r;
  r.ok = true;
  std::string payload = service::serialize_result(r);
  const std::string field = "\nprint_dump 0\n";
  size_t at = payload.find(field);
  ASSERT_NE(at, std::string::npos) << payload;
  payload.replace(at, field.size(), "\nprint_dump 18446744073709551615\n");

  net::Request fill;
  fill.type = net::RequestType::CacheFill;
  fill.key = net::format_key(0xbad);
  fill.payload = payload;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(fill), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_NE(resp.error.find("cache_fill"), std::string::npos) << resp.error;
  EXPECT_EQ(worker.peer_stats().fills_received, 0u);

  net::Request ping;
  ping.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  worker.begin_drain();
  worker.wait();
}

TEST(DistFleet, SaturatedWorkerIsSteeredAround) {
  // Two standalone workers enrolled by hand, so the test fully controls
  // the heartbeat load reports: `wa` claims a deep queue, `wb` is idle.
  // Every request must steer off the saturated worker — without a single
  // failover, because steering is routing, not failure handling.
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  service::ResultCache cache_a(64), cache_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.id = "wa";
  wo.cache = &cache_a;
  dist::Worker wa(wo);
  ASSERT_TRUE(wa.start(&err)) << err;
  wo.id = "wb";
  wo.cache = &cache_b;
  dist::Worker wb(wo);
  ASSERT_TRUE(wb.start(&err)) << err;

  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 120'000)) << err;
  auto enroll = [&](const std::string& id, int port, int64_t queue_depth) {
    net::Request reg;
    reg.type = net::RequestType::Register;
    reg.worker = {id, "127.0.0.1", port};
    net::Response resp;
    ASSERT_TRUE(ctl.call(std::move(reg), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
    net::Request hb;
    hb.type = net::RequestType::Heartbeat;
    hb.worker = {id, "127.0.0.1", port};
    hb.load.queue_depth = queue_depth;
    ASSERT_TRUE(ctl.call(std::move(hb), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  };
  enroll("wa", wa.port(), 100);  // far past the saturation threshold
  enroll("wb", wb.port(), 0);

  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 120'000)) << err;
  for (int i = 0; i < 12; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err))
        << "job " << i << ": " << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << "job " << i << ": "
                                            << resp.error;
  }

  // Every compile landed on the idle worker; the saturated one was never
  // asked. With 12 keys over 2 workers some surely hashed home to `wa`,
  // so steers were counted — and none of this is failure handling.
  EXPECT_EQ(cache_b.memory_entries(), 12u);
  EXPECT_EQ(cache_a.memory_entries(), 0u);
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_GE(fs.load_steers, 1u);
  EXPECT_EQ(fs.failovers, 0u);
  EXPECT_EQ(fs.worker_lost, 0u);
  EXPECT_EQ(fs.forwarded, 12u);
  // All 12 forwards shared one pooled channel to `wb`.
  EXPECT_EQ(fs.channels_opened, 1u);

  coord.begin_drain();
  coord.wait();
  wa.begin_drain();
  wa.wait();
  wb.begin_drain();
  wb.wait();
}

// ---------------------------------------------------------------------------
// Loop-driven forwarding: the coordinator's per-request state machine
// ---------------------------------------------------------------------------

// Registers a worker with the coordinator by hand (no heartbeat thread),
// so a test controls exactly who is routable.
void enroll(net::Client& ctl, const std::string& id, int port) {
  std::string err;
  net::Request reg;
  reg.type = net::RequestType::Register;
  reg.worker = {id, "127.0.0.1", port};
  net::Response resp;
  ASSERT_TRUE(ctl.call(std::move(reg), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
}

// The i-th tiny app whose key ranks `first` ahead of every other id.
suite::BenchmarkApp tiny_app_homed_on(const std::string& first,
                                      const std::vector<std::string>& ids,
                                      int* i) {
  while (true) {
    suite::BenchmarkApp app = tiny_app((*i)++);
    uint64_t key = service::cache_key(app.source, app.annotations, {});
    if (dist::rank_workers(key, ids).front() == first) return app;
  }
}

// A stand-in fleet member on a real loopback socket. It speaks just
// enough of the protocol for the coordinator's failure paths: the test
// accepts connections, reads forwards and answers (or doesn't) by hand.
class FakeWorker {
 public:
  FakeWorker() {
    std::string err;
    listen_fd_ = net::listen_tcp(0, &port_, &err);
    EXPECT_GE(listen_fd_, 0) << err;
  }
  ~FakeWorker() {
    close_listener();
    for (int fd : conns_) ::close(fd);
  }
  int port() const { return port_; }

  // Blocks (up to 30 s) for the next connection; -1 on timeout.
  int accept_conn() {
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, 30'000) != 1) return -1;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) conns_.push_back(fd);
    return fd;
  }

  // Blocks (up to 30 s) until `n` request frames arrived on `fd`.
  std::vector<net::Request> read_requests(int fd, size_t n) {
    net::FrameReader reader;
    std::vector<net::Request> out;
    char buf[4096];
    auto give_up = std::chrono::steady_clock::now() + milliseconds(30'000);
    while (out.size() < n && std::chrono::steady_clock::now() < give_up) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) != 1) continue;
      ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) break;
      reader.feed(buf, static_cast<size_t>(got));
      while (auto payload = reader.next()) {
        net::Request req;
        std::string err;
        EXPECT_TRUE(net::read_request(*payload, &req, &err)) << err;
        out.push_back(std::move(req));
      }
    }
    return out;
  }

  void close_listener() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<int> conns_;
};

// A spin run: long enough to keep a one-lane worker busy for a while
// (tens of milliseconds, seconds under sanitizers).
net::Request spin_run(int salt) {
  net::Request req;
  req.type = net::RequestType::Run;
  req.name = "SPIN";
  req.source = "      PROGRAM SPIN\n"
               "      REAL A(10)\n"
               "      INTEGER I, J\n"
               "      DO 20 J = 1, " + std::to_string(100000 + salt) + "\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = A(I) + 1.0\n"
               "   10 CONTINUE\n"
               "   20 CONTINUE\n"
               "      END\n";
  req.interp.engine = interp::Engine::Tree;
  req.interp.num_threads = 1;
  req.interp.max_steps = 100'000'000;
  return req;
}

TEST(DistFleet, LongRunDoesNotDelayAWarmHitOnTheOtherWorker) {
  // The coordinator has no lanes: a forward still pending on one worker
  // must not hold up a request the loop relays to the other.
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  service::ResultCache cache_a(64), cache_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.id = "wa";
  wo.cache = &cache_a;
  dist::Worker wa(wo);
  ASSERT_TRUE(wa.start(&err)) << err;
  wo.id = "wb";
  wo.cache = &cache_b;
  dist::Worker wb(wo);
  ASSERT_TRUE(wb.start(&err)) << err;
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  enroll(ctl, "wa", wa.port());
  enroll(ctl, "wb", wb.port());
  const std::vector<std::string> ids = {"wa", "wb"};

  // A run homed on `wa`, and a compile homed on `wb` made warm there.
  net::Request run;
  for (int salt = 0;; ++salt) {
    run = spin_run(salt);
    uint64_t key = service::cache_key(run.source, run.annotations, {});
    if (dist::rank_workers(key, ids).front() == "wa") break;
  }
  int next = 0;
  suite::BenchmarkApp warm = tiny_app_homed_on("wb", ids, &next);
  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(warm), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;

  // Pipelined on one connection: the warm hit overtakes the run.
  int64_t run_id = 0, warm_id = 0;
  ASSERT_TRUE(client.submit(std::move(run), &run_id, &err)) << err;
  ASSERT_TRUE(client.submit(compile_request(warm), &warm_id, &err)) << err;
  net::Response first, second;
  ASSERT_TRUE(client.recv_any(&first, &err)) << err;
  ASSERT_TRUE(client.recv_any(&second, &err)) << err;
  EXPECT_EQ(first.id, warm_id);
  EXPECT_EQ(first.status, net::Status::Ok) << first.error;
  EXPECT_TRUE(first.result.cache_hit);
  EXPECT_EQ(second.id, run_id);
  EXPECT_EQ(second.status, net::Status::Ok) << second.error;
  EXPECT_TRUE(second.has_run);
  EXPECT_EQ(cache_a.memory_entries(), 0u);  // the compile never went to wa

  service::FleetStats fs = coord.fleet_stats();
  EXPECT_EQ(fs.forwarded, 3u);
  EXPECT_EQ(fs.failovers, 0u);
  EXPECT_EQ(fs.channels_opened, 2u);  // one connection per worker
  coord.begin_drain();
  coord.wait();
  wa.begin_drain();
  wa.wait();
  wb.begin_drain();
  wb.wait();
}

TEST(DistFleet, KilledWorkerRetriesEachPipelinedForwardThenFailsOver) {
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  FakeWorker doomed;
  service::ResultCache cache_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.id = "wb";
  wo.cache = &cache_b;
  dist::Worker wb(wo);
  ASSERT_TRUE(wb.start(&err)) << err;
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  enroll(ctl, "doomed", doomed.port());
  enroll(ctl, "wb", wb.port());
  const std::vector<std::string> ids = {"doomed", "wb"};

  // Three compiles homed on the doomed worker, pipelined by one client:
  // the coordinator sends all three down its one connection, and the
  // worker dies holding them. Its listener goes first, so the retries'
  // fresh connections are refused.
  constexpr size_t kPipelined = 3;
  std::thread killer([&] {
    int fd = doomed.accept_conn();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(doomed.read_requests(fd, kPipelined).size(), kPipelined);
    doomed.close_listener();
    ::shutdown(fd, SHUT_RDWR);
  });
  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;
  int next = 0;
  std::set<int64_t> submitted;
  for (size_t i = 0; i < kPipelined; ++i) {
    int64_t id = 0;
    ASSERT_TRUE(client.submit(
        compile_request(tiny_app_homed_on("doomed", ids, &next)), &id, &err))
        << err;
    submitted.insert(id);
  }
  killer.join();
  for (size_t i = 0; i < kPipelined; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(submitted.erase(resp.id), 1u);
  }
  EXPECT_EQ(cache_b.memory_entries(), kPipelined);

  // Each forward retried once on a fresh connection, then failed over.
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_EQ(fs.retries, kPipelined);
  EXPECT_EQ(fs.failovers, kPipelined);
  EXPECT_EQ(fs.forwarded, kPipelined);
  EXPECT_EQ(fs.worker_lost, 0u);
  EXPECT_GE(fs.workers_dead, 1u);
  coord.begin_drain();
  coord.wait();
  wb.begin_drain();
  wb.wait();
}

TEST(DistFleet, ForwardPastItsDeadlineIsAnsweredAndTheLateReplyDropped) {
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;
  FakeWorker slow;
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  enroll(ctl, "slow", slow.port());

  // The worker answers only after the request's deadline has passed.
  std::atomic<bool> replied{false};
  std::thread worker([&] {
    int fd = slow.accept_conn();
    ASSERT_GE(fd, 0);
    std::vector<net::Request> got = slow.read_requests(fd, 1);
    ASSERT_EQ(got.size(), 1u);
    std::this_thread::sleep_for(milliseconds(300));
    net::Response late;
    late.id = got[0].id;
    late.has_result = true;
    late.result.ok = true;
    std::string frame = net::encode_frame(net::encode_response_binary(late));
    EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    replied.store(true);
  });

  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 30'000)) << err;
  net::Request req = compile_request(tiny_app(0));
  req.deadline_ms = 100;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::DeadlineExceeded) << resp.error;
  worker.join();
  ASSERT_TRUE(replied.load());
  std::this_thread::sleep_for(milliseconds(100));  // let the reply land

  // The late reply never reaches the client: the next frame it reads
  // answers its next request.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ping.id = 4242;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.id, 4242);
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(coord.server()->stats().timed_out, 1u);
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_EQ(fs.forwarded, 0u);
  EXPECT_EQ(fs.retries, 0u);
  EXPECT_EQ(fs.failovers, 0u);
  for (const auto& m : coord.membership().snapshot())
    EXPECT_EQ(m.health, dist::Health::Alive) << m.info.id;
  coord.begin_drain();
  coord.wait();
}

TEST(DistFleet, ForwardTimeoutFailsTheConnectionOver) {
  constexpr int64_t kForwardTimeoutMs = 200;
  dist::CoordinatorOptions co;
  co.forward_timeout_ms = kForwardTimeoutMs;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  FakeWorker silent;  // accepts and reads, never answers
  service::ResultCache cache_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.id = "wb";
  wo.cache = &cache_b;
  dist::Worker wb(wo);
  ASSERT_TRUE(wb.start(&err)) << err;
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  enroll(ctl, "silent", silent.port());
  enroll(ctl, "wb", wb.port());

  // The first connection and the retry's fresh one both stay silent.
  std::thread sink([&] {
    for (int c = 0; c < 2; ++c) {
      int fd = silent.accept_conn();
      ASSERT_GE(fd, 0);
      EXPECT_EQ(silent.read_requests(fd, 1).size(), 1u);
    }
  });
  int next = 0;
  suite::BenchmarkApp app =
      tiny_app_homed_on("silent", {"silent", "wb"}, &next);
  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 30'000)) << err;
  auto t0 = std::chrono::steady_clock::now();
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(app), &resp, &err)) << err;
  auto elapsed = std::chrono::steady_clock::now() - t0;
  sink.join();
  EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
  EXPECT_EQ(cache_b.memory_entries(), 1u);
  // Two silent windows (the first send and its retry), then failover.
  EXPECT_GE(elapsed, milliseconds(2 * kForwardTimeoutMs));
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_EQ(fs.retries, 1u);
  EXPECT_EQ(fs.failovers, 1u);
  EXPECT_EQ(fs.forwarded, 1u);
  for (const auto& m : coord.membership().snapshot()) {
    if (m.info.id == "silent") {
      EXPECT_EQ(m.health, dist::Health::Suspect);
    }
  }
  coord.begin_drain();
  coord.wait();
  wb.begin_drain();
  wb.wait();
}

// Reads forwards from `fd` until `n` arrived and answers each one Ok.
void answer_ok(FakeWorker& w, int fd, size_t n) {
  std::vector<net::Request> got = w.read_requests(fd, n);
  EXPECT_EQ(got.size(), n);
  for (const auto& req : got) {
    net::Response ok;
    ok.id = req.id;
    ok.has_result = true;
    ok.result.ok = true;
    std::string frame = net::encode_frame(net::encode_response_binary(ok));
    EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }
}

TEST(DistFleet, FailoverAfterAReRegistrationGoesToTheNewAddress) {
  // A forward admitted while `w` was at its old address fails over to `w`
  // after `w` re-registered at a new one (a restart on another port) and
  // is already serving there. The failover must use the new address and
  // leave the live connection, and the forward pending on it, alone.
  dist::CoordinatorOptions co;
  co.backoff_ms = 1'000;  // the failover waits in a loop timer meanwhile
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;
  FakeWorker first, old_w, new_w;
  old_w.close_listener();  // the old process is gone
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  enroll(ctl, "first", first.port());
  enroll(ctl, "w", old_w.port());
  const std::vector<std::string> ids = {"first", "w"};
  int next = 0;
  suite::BenchmarkApp stale = tiny_app_homed_on("first", ids, &next);
  suite::BenchmarkApp fresh = tiny_app_homed_on("w", ids, &next);

  // `first` takes the forward and dies; the retry's connection is refused.
  std::thread crash([&] {
    int fd = first.accept_conn();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(first.read_requests(fd, 1).size(), 1u);
    first.close_listener();
    ::shutdown(fd, SHUT_RDWR);
  });
  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 30'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;
  int64_t stale_id = 0, fresh_id = 0;
  ASSERT_TRUE(client.submit(compile_request(stale), &stale_id, &err)) << err;
  crash.join();
  auto give_up = std::chrono::steady_clock::now() + milliseconds(30'000);
  while (coord.fleet_stats().failovers == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(milliseconds(5));
  ASSERT_EQ(coord.fleet_stats().failovers, 1u);

  // While the failover waits out its backoff, `w` comes back at a new
  // address and takes a forward there, holding it unanswered.
  enroll(ctl, "w", new_w.port());
  ASSERT_TRUE(client.submit(compile_request(fresh), &fresh_id, &err)) << err;
  int fd = new_w.accept_conn();
  ASSERT_GE(fd, 0);
  // Both forwards arrive on that one connection, the failover second.
  answer_ok(new_w, fd, 2);
  std::set<int64_t> want = {stale_id, fresh_id};
  for (int i = 0; i < 2; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(want.erase(resp.id), 1u);
  }
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_EQ(fs.retries, 1u);  // only the dead worker's
  EXPECT_EQ(fs.failovers, 1u);
  EXPECT_EQ(fs.forwarded, 2u);
  EXPECT_EQ(fs.worker_lost, 0u);
  for (const auto& m : coord.membership().snapshot()) {
    if (m.info.id == "w") {
      EXPECT_EQ(m.health, dist::Health::Alive);
    }
  }
  coord.begin_drain();
  coord.wait();
}

TEST(DistFleet, RegistrationUnderAHostnameIsRejected) {
  // The coordinator dials workers from its event loop and never resolves
  // names there, so a worker must advertise an address.
  dist::Coordinator coord(dist::CoordinatorOptions{});
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;
  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 30'000)) << err;
  net::Request reg;
  reg.type = net::RequestType::Register;
  reg.worker = {"named", "localhost", 1};
  net::Response resp;
  ASSERT_TRUE(ctl.call(std::move(reg), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_TRUE(coord.membership().snapshot().empty());
  // A nonblocking connect refuses a name instead of resolving it.
  EXPECT_EQ(net::connect_tcp("localhost", 1, &err, /*nonblocking=*/true), -1);
  coord.begin_drain();
  coord.wait();
}

// A three-unit app for the unit-artifact tier tests: editing UTWO leaves
// UONE's dependence closure untouched, so exactly one unit is reusable
// across the edit.
suite::BenchmarkApp three_unit_app() {
  suite::BenchmarkApp app;
  app.name = "TRIPLET";
  app.source = "      PROGRAM MAIN\n"
               "      REAL A(16)\n"
               "      CALL UONE(A)\n"
               "      CALL UTWO(A)\n"
               "      S = 0.0\n"
               "      DO 10 I = 1, 16\n"
               "        S = S + A(I)\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) S\n"
               "      END\n"
               "\n"
               "      SUBROUTINE UONE(A)\n"
               "      REAL A(16)\n"
               "      DO 20 I = 1, 16\n"
               "        A(I) = I * 2.0\n"
               "   20 CONTINUE\n"
               "      END\n"
               "\n"
               "      SUBROUTINE UTWO(A)\n"
               "      REAL A(16)\n"
               "      DO 30 I = 1, 16\n"
               "        A(I) = A(I) + 1.0\n"
               "   30 CONTINUE\n"
               "      END\n";
  return app;
}

// A coordinator plus two one-lane workers that know each other as peers.
struct PairFleet {
  explicit PairFleet(int64_t peer_timeout_ms = 2'000) {
    dist::CoordinatorOptions co;
    co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
    coord = std::make_unique<dist::Coordinator>(co);
    std::string err;
    EXPECT_TRUE(coord->start(&err)) << err;
    for (int i = 0; i < 2; ++i) {
      dist::WorkerOptions wo;
      wo.id = i == 0 ? "wa" : "wb";
      wo.threads = 1;
      wo.coordinator_port = coord->port();
      wo.heartbeat_interval_ms = 100;
      wo.peer_timeout_ms = peer_timeout_ms;
      wo.cache = &caches[i];
      workers[i] = std::make_unique<dist::Worker>(wo);
      EXPECT_TRUE(workers[i]->start(&err)) << err;
    }
    // wa registered alone; it learns of wb from a heartbeat response.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (workers[0]->peers().size() < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(milliseconds(10));
    EXPECT_EQ(workers[0]->peers().size(), 2u);
  }
  ~PairFleet() {
    for (auto& w : workers) {
      w->begin_drain();
      w->wait();
    }
    coord->begin_drain();
    coord->wait();
  }

  service::ResultCache caches[2]{service::ResultCache(64),
                                 service::ResultCache(64)};
  std::unique_ptr<dist::Coordinator> coord;
  std::unique_ptr<dist::Worker> workers[2];
};

TEST(DistFleet, PeerHopsReuseOneConnection) {
  // Edited compiles miss every cache, so each one probes its peer
  // (cache_probe) and replicates its result (cache_fill). All of those
  // hops ride one kept channel per peer, so a worker's server sees a
  // bounded number of connections — the coordinator's channel and its
  // peer's — however many compiles run.
  PairFleet fleet;
  std::string err;
  net::Client client;
  ASSERT_TRUE(client.connect(fleet.coord->port(), &err, 120'000)) << err;
  suite::BenchmarkApp app = three_unit_app();
  const char* units[] = {"UONE", "UTWO", "MAIN"};
  for (int i = 0; i < 20; ++i) {
    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, units[i % 3], 100 + i);
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(edited), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_FALSE(resp.result.cache_hit);
  }

  uint64_t probes = 0, fills = 0;
  for (auto& w : fleet.workers) {
    w->flush_fills();
    service::PeerCacheStats ps = w->peer_stats();
    probes += ps.probes_sent;
    fills += ps.fills_sent;
  }
  // The peer plane was exercised...
  EXPECT_GE(probes, 20u);
  EXPECT_GE(fills, 20u);
  // ...over at most the coordinator's channel, the peer's channel and
  // one redial, per worker.
  for (auto& w : fleet.workers)
    EXPECT_LE(w->server()->stats().connections, 3u) << w->id();
}

TEST(DistFleet, FullFillQueueDropsTheOldest) {
  // A batch's items all store before its one reply, so their fills pile
  // up in wa's queue: past kMaxQueuedFills the oldest are dropped and
  // counted, and the newest still reach wb once the reply is out.
  PairFleet fleet;
  dist::Worker& wa = *fleet.workers[0];
  constexpr int kItems = static_cast<int>(dist::kMaxQueuedFills) + 44;
  net::Request batch;
  batch.type = net::RequestType::CompileBatch;
  for (int i = 0; i < kItems; ++i) {
    suite::BenchmarkApp app = tiny_app(1000 + i);
    batch.batch.push_back({app.name, app.source, app.annotations, {}});
  }
  std::string err;
  net::Client client;
  ASSERT_TRUE(client.connect(wa.port(), &err, 120'000)) << err;
  net::Response resp;
  ASSERT_TRUE(client.call(batch, &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_EQ(resp.batch.size(), static_cast<size_t>(kItems));
  wa.flush_fills();

  const uint64_t queued = kItems;  // one cache_fill per fresh compile
  ASSERT_GT(queued, dist::kMaxQueuedFills);
  service::PeerCacheStats ps = wa.peer_stats();
  EXPECT_EQ(ps.fills_dropped, queued - dist::kMaxQueuedFills);
  EXPECT_EQ(ps.fills_sent, dist::kMaxQueuedFills);
  auto key_of = [&](int i) {
    suite::BenchmarkApp app = tiny_app(1000 + i);
    return service::cache_key(app.source, app.annotations, {});
  };
  EXPECT_FALSE(fleet.caches[1].find_memory(key_of(0)).has_value());
  EXPECT_TRUE(fleet.caches[1].find_memory(key_of(kItems - 1)).has_value());
}

TEST(DistFleet, DrainWithADeadPeerReturnsWithinPeerTimeout) {
  // wb crashes; wa still lists it (long membership windows), so every
  // compile on wa probes it and queues fills for it. Draining wa must
  // flush or drop that queue within peer_timeout_ms, never hang on wb.
  constexpr int64_t kPeerTimeoutMs = 2'000;
  PairFleet fleet(kPeerTimeoutMs);
  dist::Worker& wa = *fleet.workers[0];
  dist::Worker& wb = *fleet.workers[1];
  wb.stop_hard();
  wb.wait();
  bool lists_wb = false;
  for (const auto& p : wa.peers()) lists_wb = lists_wb || p.id == "wb";
  ASSERT_TRUE(lists_wb);

  std::string err;
  net::Client client;
  ASSERT_TRUE(client.connect(wa.port(), &err, 120'000)) << err;
  suite::BenchmarkApp app = three_unit_app();
  for (int i = 0; i < 8; ++i) {
    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, "UTWO", 200 + i);
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(edited), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  }
  client.close();

  auto t0 = std::chrono::steady_clock::now();
  wa.begin_drain();
  wa.wait();
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), kPeerTimeoutMs);
  // Nothing reached the dead peer.
  service::PeerCacheStats ps = wa.peer_stats();
  EXPECT_EQ(ps.fills_sent, 0u);
  EXPECT_GE(ps.probes_sent, 1u);
  EXPECT_EQ(ps.probe_hits, 0u);
}

TEST(DistFleet, GracefulLeaveIsAnnouncedNotDiscovered) {
  dist::FleetOptions fo;
  fo.workers = 2;
  fo.worker_threads = 1;
  fo.heartbeat_interval_ms = 100;
  fo.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Fleet fleet(fo);
  std::string err;
  ASSERT_TRUE(fleet.start(&err)) << err;

  fleet.worker(1)->begin_drain();
  fleet.worker(1)->wait();

  // The departure was announced: the worker left, nothing died, and the
  // survivor serves the whole keyspace without a single failover.
  EXPECT_EQ(fleet.coordinator()->membership().left(), 1u);
  EXPECT_EQ(fleet.coordinator()->membership().died(), 0u);

  net::Client client;
  ASSERT_TRUE(client.connect(fleet.coordinator_port(), &err, 120'000)) << err;
  for (int i = 0; i < 8; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  }
  EXPECT_EQ(fleet.coordinator()->fleet_stats().failovers, 0u);

  fleet.drain_all();
}

}  // namespace
}  // namespace ap

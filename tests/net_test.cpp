// Protocol-hardening tests for the serving layer (src/net): wire framing,
// options/message round-trips, and a live in-process server driven through
// hostile inputs — truncated frames, oversized length prefixes, garbage
// JSON, half-open disconnects, overload, deadlines, drain. The server must
// answer with structured errors, never crash, and never leak an fd.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/binproto.h"
#include "net/channel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "suite/suite.h"
#include "tests/net_corpus.h"

namespace ap {
namespace {

namespace fs = std::filesystem;
using net_corpus::nondefault_pipeline_options;
using net_corpus::rich_request;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Framing, EncodeDecodeRoundTrip) {
  std::string frame = net::encode_frame("hello");
  ASSERT_EQ(frame.size(), 9u);
  EXPECT_EQ(frame.substr(4), "hello");
  net::FrameReader r;
  r.feed(frame.data(), frame.size());
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Framing, ByteAtATimeDelivery) {
  std::string frame = net::encode_frame("fragmented payload") +
                      net::encode_frame("second");
  net::FrameReader r;
  std::vector<std::string> got;
  for (char c : frame) {
    r.feed(&c, 1);
    while (auto p = r.next()) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "fragmented payload");
  EXPECT_EQ(got[1], "second");
}

TEST(Framing, TruncatedFrameIsNotAnError) {
  std::string frame = net::encode_frame("truncated");
  net::FrameReader r;
  r.feed(frame.data(), frame.size() - 3);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.error());
  r.feed(frame.data() + frame.size() - 3, 3);
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "truncated");
}

TEST(Framing, OversizedPrefixIsStickyError) {
  net::FrameReader r(/*max_frame=*/64);
  std::string frame = net::encode_frame(std::string(65, 'x'));
  r.feed(frame.data(), frame.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.error());
  EXPECT_NE(r.error_message().find("exceeds maximum"), std::string::npos);
  // Sticky: later well-formed frames are not resynchronized.
  std::string ok = net::encode_frame("ok");
  r.feed(ok.data(), ok.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.error());
}

TEST(Framing, EmptyPayloadRoundTrips) {
  std::string frame = net::encode_frame("");
  net::FrameReader r;
  r.feed(frame.data(), frame.size());
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
}

// ---------------------------------------------------------------------------
// Message round-trips
// ---------------------------------------------------------------------------

TEST(Protocol, RequestRoundTripPreservesEveryField) {
  for (auto type : {net::RequestType::Compile, net::RequestType::Run,
                    net::RequestType::Metrics, net::RequestType::Ping}) {
    net::Request r;
    r.type = type;
    r.id = 42;
    r.name = "APP \"quoted\"";
    r.source = "      PROGRAM X\n      END\n";
    r.annotations = "inline matmlt\n";
    r.options = nondefault_pipeline_options();
    r.interp.num_threads = 3;
    r.interp.enable_parallel = false;
    r.interp.max_steps = 12345;
    r.interp.check_bounds = false;
    r.interp.engine = interp::Engine::Tree;
    r.deadline_ms = 777;

    net::Request back;
    std::string err;
    ASSERT_TRUE(net::request_from_json(net::request_to_json(r), &back, &err))
        << net::request_type_name(type) << ": " << err;
    EXPECT_EQ(back.type, r.type);
    EXPECT_EQ(back.id, r.id);
    // ping/metrics intentionally carry no payload; the interp encoding
    // rides only on run requests.
    bool has_payload = type == net::RequestType::Compile ||
                       type == net::RequestType::Run;
    if (!has_payload) continue;
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.source, r.source);
    EXPECT_EQ(back.annotations, r.annotations);
    EXPECT_EQ(back.deadline_ms, r.deadline_ms);
    // Options fingerprint covers every PipelineOptions field, so equality
    // there is equality everywhere.
    EXPECT_EQ(service::options_fingerprint(back.options),
              service::options_fingerprint(r.options));
    if (type != net::RequestType::Run) continue;
    EXPECT_EQ(back.interp.num_threads, 3);
    EXPECT_FALSE(back.interp.enable_parallel);
    EXPECT_EQ(back.interp.max_steps, 12345);
    EXPECT_FALSE(back.interp.check_bounds);
    EXPECT_EQ(back.interp.engine, interp::Engine::Tree);
  }
}

TEST(Protocol, ResponseRoundTripEveryStatus) {
  for (auto status :
       {net::Status::Ok, net::Status::Error, net::Status::Overloaded,
        net::Status::DeadlineExceeded, net::Status::UnsupportedVersion,
        net::Status::WorkerLost, net::Status::ProtocolError}) {
    net::Response r;
    r.id = 9;
    r.status = status;
    r.error = "reason\nwith newline";
    r.has_result = true;
    r.result.ok = true;
    r.result.cache_hit = true;
    r.result.peer_hit = true;
    r.result.parallel_loops = {3, 17, 42};
    r.result.code_lines = 120;
    r.result.dep_tests = 55;
    r.result.dep_tests_unique = 33;
    r.result.unit_hits = 7;
    r.result.unit_misses = 2;
    r.result.unit_invalidated = 1;
    r.result.program_text = "      PROGRAM X\n      END\n";
    r.has_run = true;
    r.run.ok = true;
    r.run.output = "CHECKSUM 1.5\n";
    r.run.statements = 1000;
    r.run.statements_parallel = 900;
    r.run.instructions = 5000;
    r.run.wall_ms = 1.25;

    net::Response back;
    std::string err;
    ASSERT_TRUE(net::response_from_json(net::response_to_json(r), &back, &err))
        << net::status_name(status) << ": " << err;
    EXPECT_EQ(back.status, r.status);
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.error, r.error);
    ASSERT_TRUE(back.has_result);
    EXPECT_EQ(back.result.parallel_loops, r.result.parallel_loops);
    EXPECT_EQ(back.result.code_lines, r.result.code_lines);
    EXPECT_EQ(back.result.dep_tests, r.result.dep_tests);
    EXPECT_EQ(back.result.dep_tests_unique, r.result.dep_tests_unique);
    EXPECT_EQ(back.result.program_text, r.result.program_text);
    EXPECT_TRUE(back.result.cache_hit);
    EXPECT_TRUE(back.result.peer_hit);
    EXPECT_EQ(back.result.unit_hits, 7u);
    EXPECT_EQ(back.result.unit_misses, 2u);
    EXPECT_EQ(back.result.unit_invalidated, 1u);
    ASSERT_TRUE(back.has_run);
    EXPECT_EQ(back.run.output, r.run.output);
    EXPECT_EQ(back.run.statements, r.run.statements);
    EXPECT_EQ(back.run.statements_parallel, r.run.statements_parallel);
    EXPECT_EQ(back.run.instructions, r.run.instructions);
    EXPECT_DOUBLE_EQ(back.run.wall_ms, r.run.wall_ms);
  }
}

TEST(Protocol, FleetMessagesRoundTrip) {
  // register: worker identity survives the wire.
  net::Request reg;
  reg.type = net::RequestType::Register;
  reg.id = 3;
  reg.worker = {"w-42", "127.0.0.1", 9001};
  net::Request back;
  std::string err;
  ASSERT_TRUE(net::request_from_json(net::request_to_json(reg), &back, &err))
      << err;
  EXPECT_EQ(back.type, net::RequestType::Register);
  EXPECT_EQ(back.worker.id, "w-42");
  EXPECT_EQ(back.worker.port, 9001);

  // heartbeat: load report + leaving flag.
  net::Request hb;
  hb.type = net::RequestType::Heartbeat;
  hb.worker = {"w-42", "127.0.0.1", 9001};
  hb.load.queue_depth = 4;
  hb.load.running = 2;
  hb.load.cache_entries = 17;
  hb.load.cache_hits = 10;
  hb.load.cache_misses = 7;
  hb.load.peer_hits = 3;
  hb.leaving = true;
  ASSERT_TRUE(net::request_from_json(net::request_to_json(hb), &back, &err))
      << err;
  EXPECT_EQ(back.load.queue_depth, 4);
  EXPECT_EQ(back.load.running, 2);
  EXPECT_EQ(back.load.cache_entries, 17u);
  EXPECT_EQ(back.load.peer_hits, 3u);
  EXPECT_TRUE(back.leaving);

  // cache_probe / cache_fill: 16-hex key and opaque payload.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = net::format_key(0xdeadbeefcafef00dull);
  ASSERT_TRUE(net::request_from_json(net::request_to_json(probe), &back, &err))
      << err;
  uint64_t key = 0;
  ASSERT_TRUE(net::parse_key(back.key, &key));
  EXPECT_EQ(key, 0xdeadbeefcafef00dull);

  net::Request fill;
  fill.type = net::RequestType::CacheFill;
  fill.key = net::format_key(1);
  fill.payload = "opaque\nresult\tbytes";
  ASSERT_TRUE(net::request_from_json(net::request_to_json(fill), &back, &err))
      << err;
  EXPECT_EQ(back.payload, fill.payload);

  // forward: wraps an inner compile and keeps the attempt counter.
  net::Request fwd;
  fwd.type = net::RequestType::Forward;
  fwd.inner = net::RequestType::Compile;
  fwd.attempt = 2;
  fwd.name = "APP";
  fwd.source = "      PROGRAM X\n      END\n";
  ASSERT_TRUE(net::request_from_json(net::request_to_json(fwd), &back, &err))
      << err;
  EXPECT_EQ(back.type, net::RequestType::Forward);
  EXPECT_EQ(back.inner, net::RequestType::Compile);
  EXPECT_EQ(back.attempt, 2);
  EXPECT_EQ(back.source, fwd.source);

  // response: hello block, probe hit payload, and the peer list. The
  // hello version is always sent, so even a foreign one survives.
  net::Response resp;
  resp.status = net::Status::Ok;
  resp.has_hello = true;
  resp.hello = {5, "coordinator", true};
  resp.found = true;
  resp.payload = "serialized result";
  resp.has_peers = true;
  resp.peers = {{"a", "127.0.0.1", 1}, {"b", "127.0.0.1", 2}};
  net::Response rback;
  ASSERT_TRUE(
      net::response_from_json(net::response_to_json(resp), &rback, &err))
      << err;
  ASSERT_TRUE(rback.has_hello);
  EXPECT_EQ(rback.hello.version, 5);
  EXPECT_EQ(rback.hello.role, "coordinator");
  EXPECT_TRUE(rback.hello.draining);
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.payload, "serialized result");
  ASSERT_TRUE(rback.has_peers);
  ASSERT_EQ(rback.peers.size(), 2u);
  EXPECT_EQ(rback.peers[1].id, "b");
  EXPECT_EQ(rback.peers[1].port, 2);
}

// v8 retired unit_probe/unit_fill (wire type values 12 and 13): both
// codecs reject them as unknown request types, whatever they carry.
TEST(Protocol, RetiredUnitMessagesAreUnknownTypes) {
  net::Request out;
  std::string err;
  for (const char* frame :
       {R"({"v": 8, "type": "unit_probe", "id": 4, "keys": ["00000000000000aa"]})",
        R"({"v": 8, "type": "unit_fill", "id": 5, "key": "00000000000000aa",
            "boundary": "parallelize", "payload": "APUNIT 2"})"}) {
    auto doc = json::parse(frame);
    ASSERT_TRUE(doc.has_value()) << frame;
    err.clear();
    EXPECT_FALSE(net::request_from_json(*doc, &out, &err)) << frame;
    EXPECT_FALSE(err.empty()) << frame;
  }
  for (int retired : {12, 13}) {
    net::Request r;
    r.type = static_cast<net::RequestType>(retired);
    err.clear();
    EXPECT_FALSE(net::decode_request_binary(net::encode_request_binary(r),
                                            &out, &err))
        << retired;
    EXPECT_NE(err.find("enum"), std::string::npos) << err;
  }
}

TEST(Protocol, RejectsWrongVersionAndMissingFields) {
  net::Request out;
  std::string err;
  auto doc = json::parse(R"({"v": 99, "type": "ping", "id": 1})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(net::request_from_json(*doc, &out, &err));
  EXPECT_NE(err.find("version"), std::string::npos);

  // No "v" at all is no claim to the version this build speaks.
  doc = json::parse(R"({"type": "ping", "id": 1})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(net::request_from_json(*doc, &out, &err));
  EXPECT_NE(err.find("version"), std::string::npos);

  doc = json::parse(R"({"v": 8, "type": "compile", "id": 1})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(net::request_from_json(*doc, &out, &err));
  EXPECT_NE(err.find("source"), std::string::npos);

  doc = json::parse(R"({"v": 8, "type": "nonsense", "id": 1})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(net::request_from_json(*doc, &out, &err));

  doc = json::parse(R"({"v": 8, "type": "ping", "id": "one"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(net::request_from_json(*doc, &out, &err));
}

// A run's interpreter thread count arrives from the network and becomes OS
// threads in the daemon, so both decoders bound it (checked at decode time
// only: nothing here starts a thread).
TEST(Protocol, RunThreadCountIsBoundedAtDecode) {
  for (auto type : {net::RequestType::Run, net::RequestType::Forward}) {
    net::Request r = rich_request(type);
    for (int threads : {1 << 20, net::kMaxRunThreads + 1, 0}) {
      r.interp.num_threads = threads;
      net::Request back;
      std::string err;
      EXPECT_FALSE(net::request_from_json(net::request_to_json(r), &back, &err))
          << threads;
      EXPECT_NE(err.find(std::to_string(net::kMaxRunThreads)),
                std::string::npos)
          << err;
      err.clear();
      EXPECT_FALSE(net::decode_request_binary(net::encode_request_binary(r),
                                              &back, &err))
          << threads;
      EXPECT_NE(err.find(std::to_string(net::kMaxRunThreads)),
                std::string::npos)
          << err;
    }
    r.interp.num_threads = net::kMaxRunThreads;
    net::Request back;
    std::string err;
    EXPECT_TRUE(net::request_from_json(net::request_to_json(r), &back, &err))
        << err;
    EXPECT_TRUE(net::decode_request_binary(net::encode_request_binary(r),
                                           &back, &err))
        << err;
    EXPECT_EQ(back.interp.num_threads, net::kMaxRunThreads);
  }
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

// A program whose execution is long enough to observe queueing (hundreds
// of milliseconds on the tree engine).
suite::BenchmarkApp spin_app() {
  suite::BenchmarkApp app;
  app.name = "SPIN";
  app.source = "      PROGRAM SPIN\n"
               "      REAL A(10)\n"
               "      INTEGER I, J\n"
               "      DO 20 J = 1, 2000000\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = A(I) + 1.0\n"
               "   10 CONTINUE\n"
               "   20 CONTINUE\n"
               "      END\n";
  return app;
}

suite::BenchmarkApp quick_app() {
  suite::BenchmarkApp app;
  app.name = "QUICK";
  app.source = "      PROGRAM QUICK\n"
               "      REAL A(10)\n"
               "      INTEGER I\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = I * 2.0\n"
               "   10 CONTINUE\n"
               "      END\n";
  return app;
}

struct LiveServer {
  service::ResultCache cache{64};
  service::Scheduler scheduler;
  net::Server server;

  explicit LiveServer(net::ServerOptions opts = {})
      : scheduler(make_sched_opts()), server(patch(opts)) {
    std::string err;
    if (!server.start(&err)) ADD_FAILURE() << "server start failed: " << err;
  }

  service::Scheduler::Options make_sched_opts() {
    service::Scheduler::Options so;
    so.threads = 1;
    so.cache = &cache;
    return so;
  }

  net::ServerOptions patch(net::ServerOptions opts) {
    opts.port = 0;
    opts.scheduler = &scheduler;
    return opts;
  }

  ~LiveServer() {
    server.begin_drain();
    server.wait();
  }
};

net::Request compile_request(const suite::BenchmarkApp& app) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = app.name;
  req.source = app.source;
  req.annotations = app.annotations;
  return req;
}

net::Request run_request(const suite::BenchmarkApp& app) {
  net::Request req = compile_request(app);
  req.type = net::RequestType::Run;
  req.interp.engine = interp::Engine::Tree;
  req.interp.num_threads = 1;
  req.interp.max_steps = 100'000'000;
  return req;
}

TEST(Server, PingMetricsAndCompile) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  net::Response cresp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  EXPECT_EQ(cresp.status, net::Status::Ok);
  ASSERT_TRUE(cresp.has_result);
  EXPECT_TRUE(cresp.result.ok);
  EXPECT_FALSE(cresp.result.cache_hit);
  EXPECT_EQ(cresp.result.parallel_loops.size(), 1u);

  // Identical resubmission is a cache hit.
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  EXPECT_EQ(cresp.status, net::Status::Ok);
  EXPECT_TRUE(cresp.result.cache_hit);

  net::Request metrics;
  metrics.type = net::RequestType::Metrics;
  ASSERT_TRUE(client.call(std::move(metrics), &resp, &err)) << err;
  ASSERT_TRUE(resp.metrics.is_object());
  const json::Value* cache = resp.metrics.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("memory_hits")->as_int(), 1);
  const json::Value* server = resp.metrics.find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->find("accepted")->as_int(), 2);
}

TEST(Server, GarbageJsonDrawsProtocolErrorAndClose) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  ASSERT_TRUE(client.send_frame("this is not json {", &err)) << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  net::Response resp;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
  // The server closes after a protocol error.
  EXPECT_FALSE(client.recv_frame(&err).has_value());
  EXPECT_GE(live.server.stats().protocol_errors, 1u);
}

TEST(Server, OversizedPrefixDrawsProtocolErrorAndClose) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 1024;
  LiveServer live(opts);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  // 4-byte prefix announcing 1 GiB; no payload needed to trip the limit.
  std::string prefix = {0x40, 0x00, 0x00, 0x00};
  ASSERT_TRUE(client.send_raw(prefix, &err)) << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  net::Response resp;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
  EXPECT_FALSE(client.recv_frame(&err).has_value());
}

TEST(Server, WellFormedFrameBadRequestDrawsProtocolError) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  ASSERT_TRUE(client.send_frame(R"({"v": 8, "type": "compile"})", &err));
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  net::Response resp;
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
}

TEST(Server, HalfOpenDisconnectMidRequestLeaksNoFd) {
  LiveServer live;
  // Baseline after one full round trip, so whatever the server sets up on
  // its first connection is counted on both sides of the comparison. The
  // pinging client stays open to the end.
  net::Client pinger;
  std::string perr;
  ASSERT_TRUE(pinger.connect(live.server.port(), &perr, 30'000)) << perr;
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response pong;
  ASSERT_TRUE(pinger.call(std::move(ping), &pong, &perr)) << perr;
  ASSERT_EQ(pong.status, net::Status::Ok);
  const int fds_before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    net::Client client;
    std::string err;
    ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
    // Half a frame: a correct prefix announcing more bytes than we send.
    std::string frame =
        net::encode_frame(net::request_to_json(compile_request(quick_app()))
                              .dump());
    ASSERT_TRUE(client.send_raw(
        std::string_view(frame).substr(0, frame.size() / 2), &err));
    client.close();  // disconnect mid-request
  }
  // The loop accepts and reaps the closed sockets whenever it is next
  // scheduled, which can take a while on a loaded host. A count read
  // before the accepts would already look settled, so first wait for all
  // four connections to be accepted, then (bounded) until the count is
  // back at the baseline on two consecutive reads.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (live.server.stats().connections < 4 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(live.server.stats().connections, 4u);
  int settled = 0;
  while (settled < 2 && std::chrono::steady_clock::now() < deadline) {
    settled = open_fd_count() <= fds_before ? settled + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(open_fd_count(), fds_before);

  // The server remains fully usable.
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
}

TEST(Server, OverloadDrawsStructuredRejection) {
  net::ServerOptions opts;
  opts.threads = 1;
  opts.max_queue = 1;
  opts.request_timeout_ms = 0;  // no deadlines in this test
  LiveServer live(opts);

  // Occupy the single worker with a slow run, then fill the queue.
  net::Client blocker;
  std::string err;
  ASSERT_TRUE(blocker.connect(live.server.port(), &err, 60'000)) << err;
  ASSERT_TRUE(
      blocker.send_frame(net::request_to_json(run_request(spin_app())).dump(),
                         &err))
      << err;
  // Wait until the worker has picked the job up (queue empty again).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  net::Client filler;
  ASSERT_TRUE(filler.connect(live.server.port(), &err, 60'000)) << err;
  ASSERT_TRUE(filler.send_frame(
      net::request_to_json(compile_request(quick_app())).dump(), &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Queue now holds one request; the next must be rejected immediately.
  net::Client rejected;
  ASSERT_TRUE(rejected.connect(live.server.port(), &err, 60'000)) << err;
  net::Response resp;
  ASSERT_TRUE(rejected.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Overloaded);
  EXPECT_GE(live.server.stats().rejected_overload, 1u);

  // The accepted requests are still answered — never dropped.
  auto blocked_payload = blocker.recv_frame(&err);
  ASSERT_TRUE(blocked_payload.has_value()) << err;
  auto filled_payload = filler.recv_frame(&err);
  ASSERT_TRUE(filled_payload.has_value()) << err;
}

TEST(Server, DeadlineExceededWhileRunning) {
  net::ServerOptions opts;
  opts.threads = 1;
  // Only the spin run carries a deadline: the follow-up compile queues
  // behind it, which under ASan takes about the default 30 s.
  opts.request_timeout_ms = 0;
  LiveServer live(opts);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 60'000)) << err;
  net::Request req = run_request(spin_app());
  req.deadline_ms = 100;  // far less than the spin takes
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::DeadlineExceeded);
  EXPECT_GE(live.server.stats().timed_out, 1u);

  // The worker eventually finishes the abandoned job and the server stays
  // healthy for new work on the same connection.
  net::Response ok;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &ok, &err)) << err;
  EXPECT_EQ(ok.status, net::Status::Ok);
}

TEST(Server, DrainRejectsNewWorkAndFinishesAccepted) {
  net::ServerOptions opts;
  opts.threads = 1;
  opts.request_timeout_ms = 0;
  // No hard drain bound: the accepted spin run must be answered however
  // long it takes, and under ASan it takes about the default 30 s.
  opts.drain_timeout_ms = 0;
  LiveServer live(opts);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 60'000)) << err;
  // An in-flight slow request...
  ASSERT_TRUE(
      client.send_frame(net::request_to_json(run_request(spin_app())).dump(),
                        &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // ...then drain. The accepted request must still be answered.
  live.server.begin_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(live.server.draining());

  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  net::Response resp;
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  live.server.wait();
  service::ServerStats stats = live.server.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.timed_out);
}

TEST(Server, HelloAnswersVersionNegotiation) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  net::HelloInfo info;
  ASSERT_TRUE(client.hello(&info, &err)) << err;
  EXPECT_EQ(info.version, net::kProtocolVersion);
  EXPECT_EQ(info.role, "single");
  EXPECT_FALSE(info.draining);

  // hello is answered even for a version we do not speak — that is the
  // whole point of negotiation.
  ASSERT_TRUE(client.send_frame(R"({"v": 999, "type": "hello", "id": 7})",
                                &err))
      << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  net::Response resp;
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(resp.id, 7);
  ASSERT_TRUE(resp.has_hello);
  EXPECT_EQ(resp.hello.version, net::kProtocolVersion);
}

TEST(Server, UnsupportedVersionIsStructuredAndNonFatal) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A version this build does not speak draws unsupported_version (not
  // protocol_error) and the connection survives for a retry after
  // renegotiation.
  ASSERT_TRUE(client.send_frame(R"({"v": 99, "type": "ping", "id": 1})", &err))
      << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  auto doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  net::Response resp;
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_NE(resp.error.find("hello"), std::string::npos);

  // Same connection, supported version: served normally.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  // Any other type under another version is a version problem too, not a
  // protocol error.
  ASSERT_TRUE(client.send_frame(
      R"({"v": 1, "type": "cache_probe", "id": 2, "key": "0000000000000001"})",
      &err))
      << err;
  payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  doc = json::parse(*payload);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(net::response_from_json(*doc, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(resp.id, 2);

  // A well-versioned fleet message against a single (non-fleet) server:
  // a structured error, and the connection is still good.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = net::format_key(0xaa);
  ASSERT_TRUE(client.call(std::move(probe), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_NE(resp.error.find("not a fleet endpoint"), std::string::npos);
  net::Request again;
  again.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(again), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(Server, IdleConnectionsAreReaped) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 250;
  LiveServer live(opts);
  std::string err;

  // One connection goes silent; another stays active past the idle
  // deadline. Only the silent one may be reaped.
  net::Client idle;
  ASSERT_TRUE(idle.connect(live.server.port(), &err, 30'000)) << err;
  net::Client active;
  ASSERT_TRUE(active.connect(live.server.port(), &err, 30'000)) << err;

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(5'000);
  bool idle_was_closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    net::Request ping;
    ping.type = net::RequestType::Ping;
    net::Response resp;
    ASSERT_TRUE(active.call(std::move(ping), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok);
    if (live.server.stats().idle_closed >= 1) {
      idle_was_closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(idle_was_closed) << "idle connection was never reaped";

  // The reaped socket is really closed: the read side reports EOF.
  std::string read_err;
  EXPECT_FALSE(idle.recv_frame(&read_err).has_value());

  // The active connection kept its session the whole time.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  ASSERT_TRUE(active.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
}

// ---------------------------------------------------------------------------
// Binary codec: equivalence against JSON, hostile frames
// ---------------------------------------------------------------------------

TEST(Binary, RequestRoundTripMatchesJsonForEveryType) {
  for (auto type : net_corpus::kAllRequestTypes) {
    net::Request r = rich_request(type);
    std::string bin = net::encode_request_binary(r);
    ASSERT_TRUE(net::is_binary_frame(bin));
    net::Request back;
    std::string err;
    ASSERT_TRUE(net::decode_request_binary(bin, &back, &err))
        << net::request_type_name(type) << ": " << err;
    // The equivalence contract: the binary codec is a pure transport
    // encoding, so the JSON rendering of the round-tripped request is
    // byte-identical to the original's.
    EXPECT_EQ(net::request_to_json(back).dump(), net::request_to_json(r).dump())
        << net::request_type_name(type);
  }

  // Forward wrapping a batch (the coordinator's fan-out shape).
  net::Request fwd = rich_request(net::RequestType::CompileBatch);
  fwd.type = net::RequestType::Forward;
  fwd.inner = net::RequestType::CompileBatch;
  fwd.attempt = 1;
  net::Request back;
  std::string err;
  ASSERT_TRUE(
      net::decode_request_binary(net::encode_request_binary(fwd), &back, &err))
      << err;
  EXPECT_EQ(net::request_to_json(back).dump(), net::request_to_json(fwd).dump());
}

TEST(Binary, ResponseRoundTripMatchesJsonForEveryShape) {
  std::vector<net::Response> shapes = net_corpus::response_shapes();
  for (size_t i = 0; i < shapes.size(); ++i) {
    std::string bin = net::encode_response_binary(shapes[i]);
    ASSERT_TRUE(net::is_binary_frame(bin));
    net::Response back;
    std::string err;
    ASSERT_TRUE(net::decode_response_binary(bin, &back, &err))
        << "shape " << i << ": " << err;
    EXPECT_EQ(net::response_to_json(back).dump(),
              net::response_to_json(shapes[i]).dump())
        << "shape " << i;
  }
}

TEST(Binary, TruncatedAndMutatedPayloadsNeverCrashTheDecoder) {
  std::string bin =
      net::encode_request_binary(rich_request(net::RequestType::Run));

  // Every strict prefix must fail cleanly (never read out of bounds).
  for (size_t len = 0; len < bin.size(); ++len) {
    net::Request out;
    std::string err;
    EXPECT_FALSE(
        net::decode_request_binary(std::string_view(bin).substr(0, len), &out,
                                   &err))
        << "prefix of " << len << " bytes decoded";
  }

  // Single-byte mutations either fail with an error or decode to some
  // valid request — either way, no crash and no exception.
  for (size_t pos = 0; pos < bin.size(); ++pos) {
    std::string mutated = bin;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    net::Request out;
    std::string err;
    if (net::decode_request_binary(mutated, &out, &err))
      (void)net::request_to_json(out).dump();  // decodable ⇒ renderable
    else
      EXPECT_FALSE(err.empty()) << "failure at byte " << pos << " without why";
  }

  // A request payload is not a response (kind byte is checked).
  net::Response resp;
  std::string err;
  EXPECT_FALSE(net::decode_response_binary(bin, &resp, &err));
}

TEST(Server, BinaryGarbageDrawsProtocolErrorAndClose) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Magic byte followed by garbage: undecodable binary frame. The reply
  // must arrive in the codec the frame claimed — binary.
  std::string garbage = "\xb4\x01 not a tlv stream at all";
  ASSERT_TRUE(client.send_frame(garbage, &err)) << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  ASSERT_TRUE(net::is_binary_frame(*payload));
  net::Response resp;
  ASSERT_TRUE(net::decode_response_binary(*payload, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);

  // The stream cannot be resynchronized: the server closes.
  EXPECT_FALSE(client.recv_frame(&err).has_value());
  EXPECT_GE(live.server.stats().protocol_errors, 1u);
}

TEST(Server, NegotiateSwitchesToBinaryAndServes) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  net::HelloInfo info;
  ASSERT_TRUE(client.negotiate(&err, &info)) << err;
  EXPECT_TRUE(info.binary);
  EXPECT_EQ(info.version, net::kProtocolVersion);
  EXPECT_TRUE(client.binary());

  // Binary compile, then the warm hit — both full round trips.
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.has_result);
  EXPECT_TRUE(resp.result.ok);
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_TRUE(resp.result.cache_hit);

  service::ServerStats stats = live.server.stats();
  EXPECT_GE(stats.binary_requests, 2u);  // the two compiles
  EXPECT_GE(stats.json_requests, 1u);    // the hello that negotiated
}

TEST(Server, BinaryUnsupportedVersionIsStructuredAndNonFatal) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A binary frame claiming v99 decodes fine; the out-of-range claim is
  // answered structurally, in binary, with the connection left open.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ping.id = 5;
  ping.version = 99;
  ASSERT_TRUE(client.send_frame(net::encode_request_binary(ping), &err)) << err;
  auto payload = client.recv_frame(&err);
  ASSERT_TRUE(payload.has_value()) << err;
  ASSERT_TRUE(net::is_binary_frame(*payload));
  net::Response resp;
  ASSERT_TRUE(net::decode_response_binary(*payload, &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(resp.id, 5);

  // Same connection still serves a well-versioned binary request.
  client.set_binary(true);
  net::Request again;
  again.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(again), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(Server, CompileBatchAnswersPerItem) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;

  net::Request req;
  req.type = net::RequestType::CompileBatch;
  net::BatchItem good;
  good.name = quick_app().name;
  good.source = quick_app().source;
  net::BatchItem bad;
  bad.name = "BROKEN";
  bad.source = "      THIS IS NOT FORTRAN AT ALL\n";
  req.batch = {std::move(good), std::move(bad)};

  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  // Per-item failures ride inside the results; the frame stays ok.
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.has_batch);
  ASSERT_EQ(resp.batch.size(), 2u);
  EXPECT_TRUE(resp.batch[0].ok) << resp.batch[0].error;
  EXPECT_FALSE(resp.batch[1].ok);
  EXPECT_FALSE(resp.batch[1].error.empty());

  service::ServerStats stats = live.server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_items, 2u);
  EXPECT_EQ(stats.batch_max, 2u);
}

TEST(Server, PipelinedResponsesReturnOutOfOrder) {
  net::ServerOptions opts;
  opts.threads = 2;  // both requests must run concurrently
  // No default deadline: under ASan the spin run takes about the default
  // 30 s, and this test is about ordering, not deadlines.
  opts.request_timeout_ms = 0;
  LiveServer live(opts);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;

  // Submit a slow run, then a quick compile, without reading in between.
  // The quick one's response overtakes on the shared connection.
  int64_t slow_id = 0, quick_id = 0;
  ASSERT_TRUE(client.submit(run_request(spin_app()), &slow_id, &err)) << err;
  ASSERT_TRUE(client.submit(compile_request(quick_app()), &quick_id, &err))
      << err;
  ASSERT_NE(slow_id, quick_id);

  net::Response first, second;
  ASSERT_TRUE(client.recv_any(&first, &err)) << err;
  ASSERT_TRUE(client.recv_any(&second, &err)) << err;
  EXPECT_EQ(first.id, quick_id);
  EXPECT_EQ(second.id, slow_id);
  EXPECT_EQ(first.status, net::Status::Ok) << first.error;
  EXPECT_EQ(second.status, net::Status::Ok) << second.error;

  EXPECT_GE(live.server.stats().pipeline_depth_peak, 2);
}

TEST(Server, MixedCodecsInterleaveOnOneConnection) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // JSON ping, binary compile, JSON metrics — each answered in the codec
  // it arrived in (call() sniffs the reply codec per frame).
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  client.set_binary(true);
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  EXPECT_TRUE(resp.has_result);

  client.set_binary(false);
  net::Request metrics;
  metrics.type = net::RequestType::Metrics;
  ASSERT_TRUE(client.call(std::move(metrics), &resp, &err)) << err;
  ASSERT_TRUE(resp.metrics.is_object());

  service::ServerStats stats = live.server.stats();
  EXPECT_GE(stats.json_requests, 2u);
  EXPECT_GE(stats.binary_requests, 1u);
}

TEST(Channel, ConcurrentCallsMultiplexOneConnection) {
  LiveServer live;
  net::ChannelOptions co;
  co.port = live.server.port();
  co.recv_timeout_ms = 120'000;
  net::Channel ch(co);

  constexpr int kThreads = 8, kCallsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        net::Request ping;
        ping.type = net::RequestType::Ping;
        net::Response resp;
        std::string err;
        if (!ch.call(std::move(ping), &resp, &err) ||
            resp.status != net::Status::Ok)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every call shared ONE negotiated connection.
  EXPECT_EQ(ch.connects(), 1u);
  EXPECT_EQ(ch.reconnects(), 0u);
  EXPECT_TRUE(ch.binary());
  EXPECT_GE(ch.inflight_peak(), 1u);
  // The server saw exactly one transport connection too.
  EXPECT_EQ(live.server.stats().connections, 1u);

  // After a reset the next call redials transparently.
  ch.reset();
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  std::string err;
  ASSERT_TRUE(ch.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(ch.connects(), 2u);
  EXPECT_EQ(ch.reconnects(), 1u);
}

// ---------------------------------------------------------------------------
// Observability plane
// ---------------------------------------------------------------------------

TEST(Protocol, TraceAndStatsFieldsRoundTripBothCodecs) {
  std::string err;
  net::Request back;

  // Trace flag + minted id on a compile, both codecs.
  net::Request traced = rich_request(net::RequestType::Compile);
  traced.trace = true;
  traced.trace_id = 0xfeedfacecafebeefull;
  ASSERT_TRUE(net::request_from_json(net::request_to_json(traced), &back, &err))
      << err;
  EXPECT_TRUE(back.trace);
  EXPECT_EQ(back.trace_id, traced.trace_id);
  ASSERT_TRUE(net::decode_request_binary(net::encode_request_binary(traced),
                                         &back, &err))
      << err;
  EXPECT_EQ(net::request_to_json(back).dump(),
            net::request_to_json(traced).dump());

  // The trace id alone rides control-plane hops (peer probes/fills).
  net::Request probe = rich_request(net::RequestType::CacheProbe);
  probe.trace_id = 42;
  ASSERT_TRUE(net::request_from_json(net::request_to_json(probe), &back, &err))
      << err;
  EXPECT_EQ(back.trace_id, 42u);
  EXPECT_FALSE(back.trace);

  // Heartbeats carry the encoded histogram bundle byte-exactly.
  net::Request hb = rich_request(net::RequestType::Heartbeat);
  hb.load.hist = "compile=3;4000;96:3|cache:hit=1;5;5:1";
  ASSERT_TRUE(net::request_from_json(net::request_to_json(hb), &back, &err))
      << err;
  EXPECT_EQ(back.load.hist, hb.load.hist);
  ASSERT_TRUE(
      net::decode_request_binary(net::encode_request_binary(hb), &back, &err))
      << err;
  EXPECT_EQ(net::request_to_json(back).dump(), net::request_to_json(hb).dump());

  // The stats type round-trips.
  net::Request stats;
  stats.type = net::RequestType::Stats;
  ASSERT_TRUE(net::request_from_json(net::request_to_json(stats), &back, &err))
      << err;
  EXPECT_EQ(back.type, net::RequestType::Stats);

  // A response span tree survives both codecs.
  net::Response resp;
  resp.id = 7;
  obs::Span root{"request", "compile", 4.0, {{"queue", "", 0.5, {}}}};
  resp.trace = obs::span_to_json(root);
  net::Response rback;
  ASSERT_TRUE(
      net::response_from_json(net::response_to_json(resp), &rback, &err))
      << err;
  obs::Span got;
  ASSERT_TRUE(obs::span_from_json(rback.trace, &got));
  EXPECT_EQ(got.name, "request");
  ASSERT_EQ(got.children.size(), 1u);
  EXPECT_EQ(got.children[0].name, "queue");
  ASSERT_TRUE(net::decode_response_binary(net::encode_response_binary(resp),
                                          &rback, &err))
      << err;
  EXPECT_EQ(net::response_to_json(rback).dump(),
            net::response_to_json(resp).dump());

  // An untraced response carries no trace member at all.
  net::Response plain;
  plain.id = 8;
  EXPECT_EQ(net::response_to_json(plain).find("trace"), nullptr);
}

TEST(Server, StatsAnswersLiveHistograms) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Some traffic so the histograms are populated: a cold compile (miss)
  // and a warm one (memory hit).
  net::Response cresp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  ASSERT_EQ(cresp.status, net::Status::Ok) << cresp.error;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  ASSERT_EQ(cresp.status, net::Status::Ok) << cresp.error;
  EXPECT_TRUE(cresp.result.cache_hit);

  net::Request stats;
  stats.type = net::RequestType::Stats;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(stats), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.metrics.is_object());

  const json::Value* hist = resp.metrics.find("hist");
  ASSERT_NE(hist, nullptr);
  const json::Value* compile = hist->find("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->find("count")->as_int(0), 2);
  EXPECT_GE(compile->find("p50_ms")->as_double(-1), 0.0);
  EXPECT_GE(compile->find("p99_ms")->as_double(-1),
            compile->find("p50_ms")->as_double(-1));
  // One cold miss, one memory hit — each in its outcome family.
  ASSERT_NE(hist->find("cache:miss"), nullptr);
  EXPECT_EQ(hist->find("cache:miss")->find("count")->as_int(0), 1);
  ASSERT_NE(hist->find("cache:memory_hit"), nullptr);
  EXPECT_EQ(hist->find("cache:memory_hit")->find("count")->as_int(0), 1);

  // The flight recorder saw the compiles; no traces were requested.
  const json::Value* flight = resp.metrics.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_GE(flight->find("recorded")->as_int(0), 2);
  const json::Value* traces = resp.metrics.find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->find("recorded")->as_int(-1), 0);

  // And the regular metrics sections ride along (server block included).
  ASSERT_NE(resp.metrics.find("server"), nullptr);

  // The histograms match what the server reports for heartbeats: the
  // encoded set decodes back to the same counts.
  auto snaps = live.server.histogram_snapshots();
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> decoded;
  ASSERT_TRUE(obs::decode_histogram_set(obs::encode_histogram_set(snaps),
                                        &decoded));
  bool saw_compile = false;
  for (const auto& [name, snap] : decoded)
    if (name == "compile") {
      saw_compile = true;
      EXPECT_EQ(snap.count, 2u);
    }
  EXPECT_TRUE(saw_compile);
}

TEST(Server, TracedCompileReturnsWellFormedSpanTree) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Cold traced compile: the worker path roots queue + cache + compile
  // spans under one "request" span.
  net::Request req = compile_request(quick_app());
  req.trace = true;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.trace.is_object()) << "traced compile returned no tree";
  obs::Span root;
  ASSERT_TRUE(obs::span_from_json(resp.trace, &root));
  EXPECT_EQ(root.name, "request");
  EXPECT_EQ(obs::span_tree_violations(root), 0u);
  ASSERT_GE(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "queue");
  bool saw_compile_span = false;
  double child_sum = 0;
  for (const auto& c : root.children) {
    child_sum += c.wall_ms;
    if (c.name == "compile") {
      saw_compile_span = true;
      // Per-pass spans ride under the compile span.
      EXPECT_GE(c.children.size(), 1u);
      for (const auto& p : c.children)
        EXPECT_EQ(p.name.rfind("pass:", 0), 0u) << p.name;
    }
  }
  EXPECT_TRUE(saw_compile_span);
  // The acceptance invariant: root wall covers the sum of child spans.
  EXPECT_GE(root.wall_ms + 0.5, child_sum);

  // Warm traced compile: the fast path still answers with a tree.
  net::Request warm = compile_request(quick_app());
  warm.trace = true;
  ASSERT_TRUE(client.call(std::move(warm), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.trace.is_object());
  obs::Span fast;
  ASSERT_TRUE(obs::span_from_json(resp.trace, &fast));
  EXPECT_EQ(obs::span_tree_violations(fast), 0u);
  ASSERT_EQ(fast.children.size(), 1u);
  EXPECT_EQ(fast.children[0].name, "cache");
  EXPECT_EQ(fast.children[0].detail, "memory_hit");

  // Both trees were sampled server-side, retrievable by trace id.
  EXPECT_EQ(live.server.traces().recorded(), 2u);

  // An untraced request draws no tree.
  net::Response plain;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &plain, &err)) << err;
  EXPECT_TRUE(plain.trace.is_null());
}

}  // namespace
}  // namespace ap

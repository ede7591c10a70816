// End-to-end equivalence for the serving layer: an in-process apserved
// core on an ephemeral port, the full 12×3 evaluation matrix driven
// through the client path, and byte-identical results against in-process
// compilation — the wire adds a transport, never a semantic. One timing
// check guards the binary codec's lead over JSON on a warm cache.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/scheduler.h"

namespace ap {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ap_net_e2e_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

net::Request to_request(const service::CompileJob& job) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = job.app.name;
  req.source = job.app.source;
  req.annotations = job.app.annotations;
  req.options = job.opts;
  return req;
}

// Submit every job over `connections` parallel client connections;
// results land in job-index slots.
std::vector<net::Response> submit_matrix(
    int port, const std::vector<service::CompileJob>& jobs, int connections,
    net::RequestType type = net::RequestType::Compile,
    interp::InterpOptions interp = {}) {
  std::vector<net::Response> responses(jobs.size());
  std::atomic<size_t> next{0};
  auto lane = [&]() {
    net::Client client;
    std::string err;
    ASSERT_TRUE(client.connect(port, &err, 120'000)) << err;
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      net::Request req = to_request(jobs[i]);
      req.type = type;
      req.interp = interp;
      ASSERT_TRUE(client.call(std::move(req), &responses[i], &err))
          << jobs[i].app.name << ": " << err;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < connections; ++i) threads.emplace_back(lane);
  lane();
  for (auto& t : threads) t.join();
  return responses;
}

TEST(NetE2E, MatrixOverWireMatchesInProcess) {
  TempDir dir("matrix");
  service::ResultCache cache(64, (dir.path / "cache").string());
  service::Scheduler::Options so;
  so.threads = 1;
  so.cache = &cache;
  service::Scheduler scheduler(so);

  net::ServerOptions nopts;
  nopts.threads = 2;
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.port(), 0);

  auto jobs = service::suite_matrix();

  // Cold pass over the wire, two connections.
  auto cold = submit_matrix(server.port(), jobs, 2);
  std::vector<service::CompileResult> wire_results(jobs.size());
  size_t cold_hits = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(cold[i].status, net::Status::Ok)
        << jobs[i].app.name << ": " << cold[i].error;
    ASSERT_TRUE(cold[i].has_result);
    wire_results[i] = cold[i].result;
    if (cold[i].result.cache_hit) ++cold_hits;
  }

  // The wire path must reproduce in-process compilation exactly: same
  // verdicts, same line counts, same emitted program text.
  std::vector<service::CompileResult> local_results(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    local_results[i] =
        service::to_compile_result(driver::run_pipeline(jobs[i].app,
                                                        jobs[i].opts));
    EXPECT_EQ(wire_results[i].ok, local_results[i].ok) << jobs[i].app.name;
    EXPECT_EQ(wire_results[i].parallel_loops, local_results[i].parallel_loops)
        << jobs[i].app.name;
    EXPECT_EQ(wire_results[i].code_lines, local_results[i].code_lines)
        << jobs[i].app.name;
    EXPECT_EQ(wire_results[i].program_text, local_results[i].program_text)
        << jobs[i].app.name;
  }

  // And therefore the same Table II.
  EXPECT_EQ(service::table2_summary(jobs, wire_results),
            service::table2_summary(jobs, local_results));

  // Warm pass: every response served from cache (>= 0.9 required, full
  // hit expected — the matrix is deterministic).
  auto warm = submit_matrix(server.port(), jobs, 2);
  size_t warm_hits = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(warm[i].status, net::Status::Ok) << warm[i].error;
    EXPECT_EQ(warm[i].result.parallel_loops, wire_results[i].parallel_loops);
    if (warm[i].result.cache_hit) ++warm_hits;
  }
  EXPECT_GE(static_cast<double>(warm_hits) / jobs.size(), 0.9);

  server.begin_drain();
  server.wait();
  service::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetE2E, PipelinedBinaryMatrixMatchesInProcess) {
  service::ResultCache cache(64);
  service::Scheduler::Options so;
  so.threads = 2;
  so.cache = &cache;
  service::Scheduler scheduler(so);
  net::ServerOptions nopts;
  nopts.threads = 2;
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  auto jobs = service::suite_matrix();

  // The whole matrix down ONE connection, binary codec, 8 requests deep.
  // Responses may return out of order; ids re-associate them.
  net::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;
  ASSERT_TRUE(client.binary());

  std::vector<net::Response> responses(jobs.size());
  std::unordered_map<int64_t, size_t> inflight;
  size_t submitted = 0, done = 0;
  while (done < jobs.size()) {
    while (submitted < jobs.size() && inflight.size() < 8) {
      int64_t id = 0;
      ASSERT_TRUE(client.submit(to_request(jobs[submitted]), &id, &err)) << err;
      inflight[id] = submitted++;
    }
    net::Response resp;
    ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
    auto it = inflight.find(resp.id);
    ASSERT_NE(it, inflight.end()) << "unmatched response id " << resp.id;
    responses[it->second] = std::move(resp);
    inflight.erase(it);
    ++done;
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(responses[i].status, net::Status::Ok)
        << jobs[i].app.name << ": " << responses[i].error;
    ASSERT_TRUE(responses[i].has_result);
    auto local = service::to_compile_result(
        driver::run_pipeline(jobs[i].app, jobs[i].opts));
    EXPECT_EQ(responses[i].result.ok, local.ok) << jobs[i].app.name;
    EXPECT_EQ(responses[i].result.parallel_loops, local.parallel_loops)
        << jobs[i].app.name;
    EXPECT_EQ(responses[i].result.program_text, local.program_text)
        << jobs[i].app.name;
  }

  server.begin_drain();
  server.wait();
  service::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_GE(stats.binary_requests, jobs.size());
  EXPECT_GE(stats.pipeline_depth_peak, 2);
}

// The binary codec with pipelining is the fast serving path: once the
// cache is warm, binary pipelined-8 must serve more requests per second
// than JSON sequential over the same matrix, and every reply — the cold
// warm-up included — must be Ok. The measured margin is 6-8x.
TEST(NetE2E, BinaryPipelinedWarmBeatsJsonSequential) {
  service::ResultCache cache(256);
  service::Scheduler::Options so;
  so.threads = 1;
  so.cache = &cache;
  service::Scheduler scheduler(so);
  net::ServerOptions nopts;
  nopts.threads = 2;
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  auto jobs = service::suite_matrix();
  const int rounds = 2;
  size_t not_ok = 0;

  net::Client json;
  ASSERT_TRUE(json.connect(server.port(), &err, 120'000)) << err;
  json.set_binary(false);
  auto json_round = [&] {
    for (const auto& job : jobs) {
      net::Response resp;
      ASSERT_TRUE(json.call(to_request(job), &resp, &err)) << err;
      if (resp.status != net::Status::Ok) ++not_ok;
    }
  };
  json_round();  // warms the cache: the measured rounds are all hits
  auto t_json = clock::now();
  for (int r = 0; r < rounds; ++r) json_round();
  double json_s = seconds_since(t_json);

  net::Client bin;
  ASSERT_TRUE(bin.connect(server.port(), &err, 120'000)) << err;
  bin.set_binary(true);
  size_t total = jobs.size() * rounds, submitted = 0, done = 0;
  auto t_bin = clock::now();
  while (done < total) {
    while (submitted < total && submitted - done < 8) {
      int64_t id = 0;
      ASSERT_TRUE(bin.submit(to_request(jobs[submitted % jobs.size()]), &id,
                             &err))
          << err;
      ++submitted;
    }
    net::Response resp;
    ASSERT_TRUE(bin.recv_any(&resp, &err)) << err;
    if (resp.status != net::Status::Ok) ++not_ok;
    ++done;
  }
  double bin_s = seconds_since(t_bin);

  EXPECT_EQ(not_ok, 0u);
  double json_rps = static_cast<double>(total) / json_s;
  double bin_rps = static_cast<double>(total) / bin_s;
  EXPECT_GT(bin_rps, json_rps) << "binary pipelined " << bin_rps
                               << " rps vs json sequential " << json_rps
                               << " rps";
  server.begin_drain();
  server.wait();
}

TEST(NetE2E, CompileBatchMatrixMatchesInProcess) {
  service::ResultCache cache(64);
  service::Scheduler::Options so;
  so.threads = 2;
  so.cache = &cache;
  service::Scheduler scheduler(so);
  net::ServerOptions nopts;
  nopts.threads = 2;
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  auto jobs = service::suite_matrix();

  // The matrix as compile_batch frames of 6 files each: one frame out,
  // one frame back, results[i] answering batch[i].
  net::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;

  std::vector<service::CompileResult> wire(jobs.size());
  constexpr size_t kBatch = 6;
  for (size_t base = 0; base < jobs.size(); base += kBatch) {
    net::Request req;
    req.type = net::RequestType::CompileBatch;
    size_t n = std::min(kBatch, jobs.size() - base);
    for (size_t k = 0; k < n; ++k) {
      net::BatchItem item;
      item.name = jobs[base + k].app.name;
      item.source = jobs[base + k].app.source;
      item.annotations = jobs[base + k].app.annotations;
      item.options = jobs[base + k].opts;
      req.batch.push_back(std::move(item));
    }
    net::Response resp;
    ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
    ASSERT_TRUE(resp.has_batch);
    ASSERT_EQ(resp.batch.size(), n);
    for (size_t k = 0; k < n; ++k) wire[base + k] = resp.batch[k];
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    auto local = service::to_compile_result(
        driver::run_pipeline(jobs[i].app, jobs[i].opts));
    EXPECT_EQ(wire[i].ok, local.ok) << jobs[i].app.name;
    EXPECT_EQ(wire[i].parallel_loops, local.parallel_loops)
        << jobs[i].app.name;
    EXPECT_EQ(wire[i].program_text, local.program_text) << jobs[i].app.name;
  }

  server.begin_drain();
  server.wait();
  service::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, (jobs.size() + kBatch - 1) / kBatch);
  EXPECT_EQ(stats.batch_items, jobs.size());
  EXPECT_EQ(stats.batch_max, kBatch);
}

TEST(NetE2E, RunOverWireMatchesInProcessExecution) {
  service::Scheduler::Options so;
  so.threads = 1;
  service::Scheduler scheduler(so);
  net::ServerOptions nopts;
  nopts.threads = 1;
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  interp::InterpOptions io;
  io.engine = interp::Engine::Bytecode;
  io.num_threads = 2;  // deterministic: reductions merge in thread order

  // One representative app per inlining config.
  std::vector<service::CompileJob> jobs;
  for (auto cfg :
       {driver::InlineConfig::None, driver::InlineConfig::Conventional,
        driver::InlineConfig::Annotation}) {
    service::CompileJob j;
    j.app = *suite::find_app("QCD");
    j.opts.config = cfg;
    jobs.push_back(std::move(j));
  }

  auto responses =
      submit_matrix(server.port(), jobs, 1, net::RequestType::Run, io);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(responses[i].status, net::Status::Ok) << responses[i].error;
    ASSERT_TRUE(responses[i].has_run);
    EXPECT_TRUE(responses[i].run.ok) << responses[i].run.error;

    auto pr = driver::run_pipeline(jobs[i].app, jobs[i].opts);
    ASSERT_TRUE(pr.ok && pr.program);
    interp::Interpreter local(*pr.program, io);
    interp::RunResult lr = local.run();
    ASSERT_TRUE(lr.ok) << lr.error;
    EXPECT_EQ(responses[i].run.output, lr.output)
        << driver::config_name(jobs[i].opts.config);
    EXPECT_EQ(responses[i].run.statements, lr.statements_executed);
    EXPECT_EQ(responses[i].run.statements_parallel, lr.statements_in_parallel);
  }

  server.begin_drain();
  server.wait();
}

TEST(NetE2E, LiveStatsAnswerMidRunWithoutDraining) {
  service::ResultCache cache(64);
  service::Scheduler::Options so;
  so.threads = 1;
  so.cache = &cache;
  service::Scheduler scheduler(so);
  net::ServerOptions nopts;
  nopts.threads = 1;  // the single lane stays busy with compiles
  nopts.scheduler = &scheduler;
  nopts.request_timeout_ms = 120'000;
  net::Server server(nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  auto jobs = service::suite_matrix();
  jobs.resize(8);

  // A submitter drives compiles while the main thread polls stats on a
  // separate connection: the poll must answer between compiles (it is
  // served inline on the loop thread), and the completed counter must
  // advance between two polls taken mid-run.
  std::thread submitter(
      [&] { submit_matrix(server.port(), jobs, 1); });

  net::Client poller;
  ASSERT_TRUE(poller.connect(server.port(), &err, 30'000)) << err;
  auto poll = [&](net::Response* out) {
    net::Request stats;
    stats.type = net::RequestType::Stats;
    ASSERT_TRUE(poller.call(std::move(stats), out, &err)) << err;
    ASSERT_EQ(out->status, net::Status::Ok) << out->error;
    ASSERT_TRUE(out->metrics.is_object());
  };

  // Wait until at least one compile completed, then take two polls with
  // traffic in between.
  net::Response first;
  int64_t completed = 0;
  for (int spin = 0; spin < 2000 && completed < 1; ++spin) {
    poll(&first);
    completed = first.metrics.find("server")->find("completed")->as_int(0);
    if (completed < 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(completed, 1);

  submitter.join();
  net::Response second;
  poll(&second);
  int64_t completed2 =
      second.metrics.find("server")->find("completed")->as_int(0);
  EXPECT_GE(completed2, completed);
  EXPECT_GE(completed2, static_cast<int64_t>(jobs.size()));

  // The counter advances across polls: one more compile between two
  // stats reads moves it by exactly one.
  submit_matrix(server.port(), {jobs[0]}, 1);
  net::Response third;
  poll(&third);
  EXPECT_EQ(third.metrics.find("server")->find("completed")->as_int(0),
            completed2 + 1);

  // Bench-side agreement: quantiles computed from the server's own
  // snapshot (the heartbeat form) equal the stats-plane numbers — same
  // histogram, same cumulative walk. Latencies are recorded before the
  // response is delivered, so the snapshot taken after the third poll
  // covers exactly the samples the third poll summarized.
  const json::Value* hist3 = third.metrics.find("hist")->find("compile");
  ASSERT_NE(hist3, nullptr);
  bool compared = false;
  for (const auto& [name, snap] : server.histogram_snapshots())
    if (name == "compile") {
      compared = true;
      EXPECT_EQ(static_cast<int64_t>(snap.count),
                hist3->find("count")->as_int(0));
      EXPECT_DOUBLE_EQ(snap.quantile_ms(0.50),
                       hist3->find("p50_ms")->as_double(-1));
      EXPECT_DOUBLE_EQ(snap.quantile_ms(0.99),
                       hist3->find("p99_ms")->as_double(-1));
    }
  EXPECT_TRUE(compared);

  // The per-type histogram carries quantiles for the compile family.
  const json::Value* hist = second.metrics.find("hist");
  ASSERT_NE(hist, nullptr);
  const json::Value* compile = hist->find("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->find("count")->as_int(0),
            static_cast<int64_t>(jobs.size()));
  double p50 = compile->find("p50_ms")->as_double(-1);
  double p90 = compile->find("p90_ms")->as_double(-1);
  double p99 = compile->find("p99_ms")->as_double(-1);
  double mx = compile->find("max_ms")->as_double(-1);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, mx);

  server.begin_drain();
  server.wait();
}

}  // namespace
}  // namespace ap

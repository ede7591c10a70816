// Fleet throughput: requests/sec and p50/p95 latency through an
// in-process coordinator + worker fleet (real loopback sockets), cold
// cache vs warm, at 1, 2, and 4 workers, plus the warm peer-hit ratio
// after a membership change reshards the keyspace.
//
// The headline block is printed as a BENCH_dist.json-friendly JSON
// document (redirect stdout or copy the block into BENCH_dist.json); the
// google-benchmark timer below re-measures the warm forwarded round-trip
// under the standard harness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "dist/fleet.h"
#include "dist/worker.h"
#include "net/client.h"

using namespace ap;

namespace {

using clock_type = std::chrono::steady_clock;

struct Measurement {
  double rps = 0;  // ok replies per second
  double p50_ms = 0;
  double p95_ms = 0;
  size_t failures = 0;  // non-ok replies and transport failures
};

// Drive the full matrix `rounds` times over `connections` parallel
// clients against the coordinator, collecting the latencies of ok replies.
// A non-ok reply counts as a failure; a transport failure counts too and
// ends that client's share of the run.
Measurement drive(int port, int connections, int rounds) {
  auto jobs = service::suite_matrix();
  std::vector<double> latencies;
  std::mutex lat_mu;
  std::atomic<size_t> next{0}, failures{0};
  size_t total = jobs.size() * static_cast<size_t>(rounds);

  auto t_start = clock_type::now();
  auto lane = [&]() {
    net::Client client;
    std::string err;
    if (!client.connect(port, &err, 120'000)) {
      ++failures;
      return;
    }
    std::vector<double> mine;
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= total) break;
      const auto& job = jobs[i % jobs.size()];
      net::Request req;
      req.type = net::RequestType::Compile;
      req.name = job.app.name;
      req.source = job.app.source;
      req.annotations = job.app.annotations;
      req.options = job.opts;
      net::Response resp;
      auto t0 = clock_type::now();
      if (!client.call(std::move(req), &resp, &err)) {
        ++failures;
        break;
      }
      if (resp.status != net::Status::Ok) {
        ++failures;
        continue;
      }
      mine.push_back(
          std::chrono::duration<double, std::milli>(clock_type::now() - t0)
              .count());
    }
    std::lock_guard<std::mutex> lock(lat_mu);
    latencies.insert(latencies.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < connections; ++i) threads.emplace_back(lane);
  lane();
  for (auto& t : threads) t.join();
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();

  Measurement m;
  std::sort(latencies.begin(), latencies.end());
  m.rps = wall_s > 0 ? static_cast<double>(latencies.size()) / wall_s : 0;
  m.p50_ms = bench::percentile(latencies, 0.50);
  m.p95_ms = bench::percentile(latencies, 0.95);
  m.failures = failures.load();
  if (m.failures)
    std::fprintf(stderr, "bench_dist: %zu failed requests\n", m.failures);
  return m;
}

dist::FleetOptions fleet_opts(int workers) {
  dist::FleetOptions fo;
  fo.workers = workers;
  fo.worker_threads = 2;
  fo.heartbeat_interval_ms = 200;
  return fo;
}

void print_dist_json() {
  bench::header("FLEET THROUGHPUT: 1 VS 2 VS 4 WORKERS (BENCH_dist.json)");
  std::printf("{\n  \"bench\": \"dist_fleet\",\n"
              "  \"jobs_per_round\": 36,\n  \"runs\": [\n");
  std::vector<int> sizes = {1, 2, 4};
  for (size_t s = 0; s < sizes.size(); ++s) {
    int workers = sizes[s];
    dist::Fleet fleet(fleet_opts(workers));
    std::string err;
    if (!fleet.start(&err)) {
      std::fprintf(stderr, "bench_dist: fleet start failed: %s\n",
                   err.c_str());
      return;
    }
    int connections = std::max(2, workers);
    Measurement cold = drive(fleet.coordinator_port(), connections, 1);
    Measurement warm = drive(fleet.coordinator_port(), connections, 5);
    service::FleetStats fs = fleet.coordinator()->fleet_stats();
    std::printf(
        "    {\"workers\": %d, \"connections\": %d, "
        "\"cold_rps\": %.1f, \"cold_p50_ms\": %.3f, \"cold_p95_ms\": %.3f, "
        "\"warm_rps\": %.1f, \"warm_p50_ms\": %.3f, \"warm_p95_ms\": %.3f, "
        "\"cold_failures\": %zu, \"warm_failures\": %zu, "
        "\"forwarded\": %llu, \"failovers\": %llu}%s\n",
        workers, connections, cold.rps, cold.p50_ms, cold.p95_ms, warm.rps,
        warm.p50_ms, warm.p95_ms, cold.failures, warm.failures,
        static_cast<unsigned long long>(fs.forwarded),
        static_cast<unsigned long long>(fs.failovers),
        s + 1 < sizes.size() ? "," : "");
    fleet.drain_all();
  }
  std::printf("  ],\n");

  // Peer-hit ratio: warm a 2-worker fleet, join a third worker so part of
  // the keyspace reshards onto it, and measure how much of the next warm
  // pass its empty cache serves from peers instead of recompiling.
  {
    dist::Fleet fleet(fleet_opts(2));
    std::string err;
    if (!fleet.start(&err)) {
      std::fprintf(stderr, "bench_dist: fleet start failed: %s\n",
                   err.c_str());
      return;
    }
    drive(fleet.coordinator_port(), 2, 1);  // cold fill

    service::ResultCache late_cache(256);
    dist::WorkerOptions wo;
    wo.id = "w-late";
    wo.threads = 2;
    wo.coordinator_port = fleet.coordinator_port();
    wo.heartbeat_interval_ms = 200;
    wo.cache = &late_cache;
    dist::Worker late(wo);
    if (late.start(&err)) {
      drive(fleet.coordinator_port(), 2, 1);  // resharded warm pass
      service::PeerCacheStats ps = late.peer_stats();
      auto jobs = service::suite_matrix();
      std::printf(
          "  \"reshard\": {\"probes_sent\": %llu, \"peer_hits\": %llu, "
          "\"peer_hit_ratio_of_matrix\": %.3f}\n",
          static_cast<unsigned long long>(ps.probes_sent),
          static_cast<unsigned long long>(ps.peer_hits),
          static_cast<double>(ps.peer_hits) / jobs.size());
      late.begin_drain();
      late.wait();
    } else {
      std::printf("  \"reshard\": {\"error\": \"late join failed\"}\n");
    }
    fleet.drain_all();
  }
  std::printf("}\n");
}

void BM_ForwardedRoundTripWarm(benchmark::State& state) {
  dist::Fleet fleet(fleet_opts(2));
  std::string err;
  if (!fleet.start(&err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!client.connect(fleet.coordinator_port(), &err, 120'000)) {
    state.SkipWithError(err.c_str());
    return;
  }
  const auto& job = jobs[0];
  auto make_req = [&]() {
    net::Request req;
    req.type = net::RequestType::Compile;
    req.name = job.app.name;
    req.source = job.app.source;
    req.annotations = job.app.annotations;
    req.options = job.opts;
    return req;
  };
  net::Response resp;
  client.call(make_req(), &resp, &err);  // prewarm the owner's cache
  for (auto _ : state) {
    if (!client.call(make_req(), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
  client.close();
  fleet.drain_all();
}

}  // namespace

BENCHMARK(BM_ForwardedRoundTripWarm)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  print_dist_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Serving-layer throughput, both codecs side by side: requests/sec and
// p50/p95 latency through a live in-process apserved core, cold cache vs
// warm, for each of the serving-path modes:
//
//   sequential  — one call at a time (the v3 baseline shape)
//   pipelined8  — 8 requests in flight on one connection (v4 pipelining)
//   batch12     — compile_batch frames of 12 files (v4 batch submit)
//
// The headline block is printed to stdout AND written to BENCH_net.json
// in the working directory (CI uploads it as an artifact). The summary
// records the v4 gate: warm single-file rps of the binary serving path
// (pipelined) vs. the sequential JSON baseline, target >= 5x.
//
// `--smoke` runs a reduced round count, skips the google-benchmark
// timers, and exits nonzero unless the binary-codec warm rps beats the
// JSON warm rps — the CI net-throughput job runs exactly this.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"

using namespace ap;

namespace {

using clock_type = std::chrono::steady_clock;

int hw_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 4;
}

struct BenchServer {
  service::ResultCache cache{256};
  service::Scheduler scheduler;
  net::Server server;

  BenchServer()
      : scheduler(sched_opts()), server(server_opts()) {
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "bench_net: server start failed: %s\n",
                   err.c_str());
      std::exit(1);
    }
  }
  ~BenchServer() {
    server.begin_drain();
    server.wait();
  }

  service::Scheduler::Options sched_opts() {
    service::Scheduler::Options so;
    so.threads = 1;
    so.cache = &cache;
    return so;
  }
  net::ServerOptions server_opts() {
    net::ServerOptions no;
    no.port = 0;
    no.threads = hw_threads();
    no.max_queue = 1024;
    no.request_timeout_ms = 0;
    no.scheduler = &scheduler;
    return no;
  }
};

// Only ok replies enter rps and the latency sample. A non-ok reply counts
// as a failure; a transport failure counts every request it lost and ends
// the run, since the connection is gone.
struct Measurement {
  double rps = 0;     // ok items (files) per second
  double p50_ms = 0;  // per round trip (per frame in batch mode)
  double p95_ms = 0;
  size_t failures = 0;  // failed items
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

bool connect_with_codec(net::Client* client, int port, bool binary) {
  std::string err;
  if (!client->connect(port, &err, 120'000)) {
    std::fprintf(stderr, "bench_net: connect failed: %s\n", err.c_str());
    return false;
  }
  client->set_binary(binary);
  return true;
}

Measurement finish(std::vector<double> latencies, size_t items,
                   size_t failures, double wall_s) {
  Measurement m;
  std::sort(latencies.begin(), latencies.end());
  m.rps = wall_s > 0 ? static_cast<double>(items) / wall_s : 0;
  m.p50_ms = bench::percentile(latencies, 0.50);
  m.p95_ms = bench::percentile(latencies, 0.95);
  m.failures = failures;
  if (failures)
    std::fprintf(stderr, "bench_net: %zu failed requests\n", failures);
  return m;
}

// One connection, one call at a time: the v3 baseline shape.
Measurement drive_sequential(int port, bool binary, int rounds) {
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_with_codec(&client, port, binary)) return {};
  std::vector<double> latencies;
  size_t failures = 0;
  std::string err;
  auto t_start = clock_type::now();
  for (int r = 0; r < rounds && !failures; ++r) {
    for (const auto& job : jobs) {
      net::Response resp;
      auto t0 = clock_type::now();
      if (!client.call(to_request(job), &resp, &err)) {
        std::fprintf(stderr, "bench_net: call failed: %s\n", err.c_str());
        ++failures;
        break;
      }
      if (resp.status != net::Status::Ok) {
        ++failures;
        continue;
      }
      latencies.push_back(
          std::chrono::duration<double, std::milli>(clock_type::now() - t0)
              .count());
    }
  }
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();
  size_t items = latencies.size();
  return finish(std::move(latencies), items, failures, wall_s);
}

// One connection, `depth` requests in flight, responses re-associated by
// id as they return (possibly out of order).
Measurement drive_pipelined(int port, bool binary, int rounds, int depth) {
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_with_codec(&client, port, binary)) return {};
  size_t total = jobs.size() * static_cast<size_t>(rounds);
  std::vector<double> latencies;
  std::unordered_map<int64_t, clock_type::time_point> inflight;
  std::string err;
  size_t submitted = 0, done = 0, failures = 0;
  auto t_start = clock_type::now();
  while (done < total) {
    while (submitted < total &&
           inflight.size() < static_cast<size_t>(depth)) {
      int64_t id = 0;
      if (!client.submit(to_request(jobs[submitted % jobs.size()]), &id,
                         &err)) {
        std::fprintf(stderr, "bench_net: submit failed: %s\n", err.c_str());
        break;
      }
      inflight[id] = clock_type::now();
      ++submitted;
    }
    net::Response resp;
    if (inflight.empty() || !client.recv_any(&resp, &err)) {
      if (!inflight.empty())
        std::fprintf(stderr, "bench_net: recv failed: %s\n", err.c_str());
      failures += total - done;  // in flight or never sent
      break;
    }
    auto it = inflight.find(resp.id);
    if (it == inflight.end()) continue;
    if (resp.status == net::Status::Ok)
      latencies.push_back(
          std::chrono::duration<double, std::milli>(clock_type::now() -
                                                    it->second)
              .count());
    else
      ++failures;
    inflight.erase(it);
    ++done;
  }
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();
  size_t items = latencies.size();
  return finish(std::move(latencies), items, failures, wall_s);
}

// compile_batch frames of `per_frame` files; rps still counts files.
Measurement drive_batch(int port, bool binary, int rounds, size_t per_frame) {
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_with_codec(&client, port, binary)) return {};
  std::vector<double> latencies;
  std::string err;
  size_t items = 0, failures = 0;
  auto t_start = clock_type::now();
  for (int r = 0; r < rounds && !failures; ++r) {
    for (size_t base = 0; base < jobs.size(); base += per_frame) {
      net::Request req;
      req.type = net::RequestType::CompileBatch;
      size_t n = std::min(per_frame, jobs.size() - base);
      for (size_t k = 0; k < n; ++k) {
        net::BatchItem item;
        item.name = jobs[base + k].app.name;
        item.source = jobs[base + k].app.source;
        item.annotations = jobs[base + k].app.annotations;
        item.options = jobs[base + k].opts;
        req.batch.push_back(std::move(item));
      }
      net::Response resp;
      auto t0 = clock_type::now();
      if (!client.call(std::move(req), &resp, &err)) {
        std::fprintf(stderr, "bench_net: batch call failed: %s\n",
                     err.c_str());
        failures += n;
        break;
      }
      size_t ok = 0;
      if (resp.status == net::Status::Ok && resp.has_batch)
        for (const auto& item : resp.batch) ok += item.ok ? 1 : 0;
      failures += n - ok;
      items += ok;
      if (ok == n)
        latencies.push_back(
            std::chrono::duration<double, std::milli>(clock_type::now() - t0)
                .count());
    }
  }
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();
  return finish(std::move(latencies), items, failures, wall_s);
}

struct CodecRuns {
  Measurement cold;        // sequential, fresh cache
  Measurement sequential;  // warm
  Measurement pipelined;   // warm, depth 8
  Measurement batch;       // warm, 12 files per frame
};

CodecRuns measure_codec(bool binary, int warm_rounds) {
  BenchServer bs;  // fresh server and cache => the first pass is cold
  CodecRuns runs;
  runs.cold = drive_sequential(bs.server.port(), binary, 1);
  runs.sequential = drive_sequential(bs.server.port(), binary, warm_rounds);
  runs.pipelined = drive_pipelined(bs.server.port(), binary, warm_rounds, 8);
  runs.batch = drive_batch(bs.server.port(), binary, warm_rounds, 12);
  return runs;
}

void append_measurement(std::string* out, const char* key,
                        const Measurement& m, bool last = false) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "      \"%s\": {\"rps\": %.1f, \"p50_ms\": %.3f, "
                "\"p95_ms\": %.3f, \"failures\": %zu}%s\n",
                key, m.rps, m.p50_ms, m.p95_ms, m.failures, last ? "" : ",");
  *out += buf;
}

// Returns true when the smoke gate holds: no request failed, and the v4
// binary serving path's warm rps beats the JSON baseline's.
bool run_headline(int warm_rounds, bool write_file) {
  bench::header("NET THROUGHPUT: JSON VS BINARY CODEC (BENCH_net.json)");

  CodecRuns json = measure_codec(/*binary=*/false, warm_rounds);
  CodecRuns bin = measure_codec(/*binary=*/true, warm_rounds);

  double baseline = json.sequential.rps;
  double v4_path = bin.pipelined.rps;
  double multiple = baseline > 0 ? v4_path / baseline : 0;
  bool beats = v4_path > baseline;
  size_t failures = 0;
  for (const CodecRuns* r : {&json, &bin})
    for (const Measurement* m : {&r->cold, &r->sequential, &r->pipelined,
                                 &r->batch})
      failures += m->failures;

  std::string out;
  out += "{\n  \"bench\": \"net_throughput\",\n";
  out += "  \"jobs_per_round\": 36,\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"warm_rounds\": %d,\n", warm_rounds);
  out += buf;
  out += "  \"codecs\": {\n";
  const struct { const char* name; const CodecRuns* runs; } codecs[] = {
      {"json", &json}, {"binary", &bin}};
  for (size_t c = 0; c < 2; ++c) {
    out += std::string("    \"") + codecs[c].name + "\": {\n";
    append_measurement(&out, "cold_sequential", codecs[c].runs->cold);
    append_measurement(&out, "warm_sequential", codecs[c].runs->sequential);
    append_measurement(&out, "warm_pipelined8", codecs[c].runs->pipelined);
    append_measurement(&out, "warm_batch12", codecs[c].runs->batch,
                       /*last=*/true);
    out += c == 0 ? "    },\n" : "    }\n";
  }
  out += "  },\n";
  std::snprintf(buf, sizeof buf,
                "  \"gate\": {\"json_warm_rps\": %.1f, "
                "\"binary_pipelined_warm_rps\": %.1f, "
                "\"multiple\": %.2f, \"binary_beats_json\": %s, "
                "\"target_5x_met\": %s, \"failures\": %zu}\n}\n",
                baseline, v4_path, multiple, beats ? "true" : "false",
                multiple >= 5.0 ? "true" : "false", failures);
  out += buf;

  std::fputs(out.c_str(), stdout);
  if (write_file) {
    if (std::FILE* f = std::fopen("BENCH_net.json", "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "bench_net: wrote BENCH_net.json\n");
    } else {
      std::fprintf(stderr, "bench_net: could not write BENCH_net.json\n");
    }
  }
  std::fprintf(stderr,
               "bench_net: v4 binary pipelined %.1f rps vs json baseline "
               "%.1f rps (%.2fx, target 5x %s), %zu failed requests\n",
               v4_path, baseline, multiple,
               multiple >= 5.0 ? "met" : "not met", failures);
  return beats && failures == 0;
}

void BM_RoundTripWarmJson(benchmark::State& state) {
  BenchServer bs;
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_with_codec(&client, bs.server.port(), false)) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string err;
  net::Response resp;
  client.call(to_request(jobs[0]), &resp, &err);  // prewarm
  for (auto _ : state) {
    if (!client.call(to_request(jobs[0]), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
}

void BM_RoundTripWarmBinary(benchmark::State& state) {
  BenchServer bs;
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_with_codec(&client, bs.server.port(), true)) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string err;
  net::Response resp;
  client.call(to_request(jobs[0]), &resp, &err);  // prewarm
  for (auto _ : state) {
    if (!client.call(to_request(jobs[0]), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
}

void BM_Ping(benchmark::State& state) {
  BenchServer bs;
  net::Client client;
  if (!connect_with_codec(&client, bs.server.port(), false)) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string err;
  for (auto _ : state) {
    net::Request req;
    req.type = net::RequestType::Ping;
    net::Response resp;
    if (!client.call(std::move(req), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
}

}  // namespace

BENCHMARK(BM_RoundTripWarmJson)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RoundTripWarmBinary)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Ping)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bool gate = run_headline(/*warm_rounds=*/smoke ? 2 : 5,
                           /*write_file=*/true);
  if (smoke) {
    if (!gate) {
      std::fprintf(stderr,
                   "bench_net: SMOKE FAIL — binary warm rps did not beat "
                   "json warm rps\n");
      return 1;
    }
    std::fprintf(stderr, "bench_net: smoke gate passed\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

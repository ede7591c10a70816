// apclient — submit work to a running apserved over the wire protocol.
//
// Single-shot mode compiles (or compiles and runs) one program: a suite
// app by name, or a .f source file with an optional annotation file.
// Matrix mode drives the full 12×3 suite evaluation through the daemon
// and prints the same Table-II summary as the batch CLI — with --check it
// also recompiles everything in-process and exits nonzero on any
// divergence, making the wire path's equivalence a testable claim.
//
//   apclient --port N [mode] [options]
//
// Modes (exactly one):
//   FILE.f               compile the given source file
//   --app NAME           compile the named suite app
//   --matrix             drive the full 12×3 suite matrix
//   --ping               liveness probe
//   --metrics            print the server's cache/server counters
//   --stats              print the live stats plane: everything --metrics
//                        shows plus per-type and per-cache-outcome latency
//                        quantiles (p50/p90/p99/max), trace and flight
//                        recorder counters, and — on a coordinator — the
//                        fleet-wide histogram merge. Answered on the
//                        daemon's loop thread: polling never queues behind
//                        compile work or drains anything.
//   --top N              poll --stats N times (every --interval-ms) and
//                        render the busiest request types as a latency
//                        leaderboard, sorted by request count
//
// Options:
//   --coordinator        expect a fleet coordinator behind --port: perform
//                        a `hello` handshake first and fail fast unless
//                        the endpoint's role is "coordinator" and its
//                        advertised protocol range overlaps ours. Requests
//                        themselves are unchanged — the coordinator speaks
//                        the same wire protocol as a single node.
//   --annot FILE         annotation DSL file (FILE.f mode)
//   --config C           inlining config: none | conv | annot (default
//                        annot; --matrix covers all three)
//   --run                also execute the compiled program and print its
//                        output
//   --engine E           interpreter engine for --run: tree | bytecode
//                        (default bytecode)
//   --run-threads N      interpreter threads for --run (default 4)
//   --connections N      concurrent connections for --matrix (default 1)
//   --pipeline N         (--matrix) keep up to N requests in flight per
//                        connection (pipelined; responses may return out
//                        of order and are matched by id; default 1)
//   --batch N            (--matrix) pack N files per `compile_batch`
//                        frame (incompatible with --run; default off)
//   --codec C            wire codec: auto | json | binary (default auto:
//                        hello-negotiate, binary when the server offers
//                        it, JSON otherwise)
//   --check              (--matrix) recompile in-process and exit 3 on
//                        any mismatch in verdicts or program text
//   --min-hit-rate F     (--matrix) exit 2 unless the server answered at
//                        least this fraction of jobs from cache
//   --edit-loop N        (--app) editor-loop demo against an --incremental
//                        daemon: compile the app once to warm the unit
//                        cache, then submit N single-unit edits (each a
//                        distinct mutation, so every request misses the
//                        whole-request cache) and print how many units
//                        each recompile reused from the incremental tier
//   --edit-unit NAME     (--edit-loop) always edit the named unit instead
//                        of rotating round-robin through the program's
//                        units (pin a leaf unit for a deterministic CI
//                        hit-rate guard)
//   --min-unit-hit-rate F  (--edit-loop) exit 2 unless unit cache hits /
//                        unit lookups across the edit iterations >= F
//   --stop-after PASS    stop the pipeline after the named pass (parse,
//                        conv-inline, annot-inline, normalize, parallelize,
//                        reverse-inline, collect-metrics)
//   --print-after PASS   print the program as unparsed after the named
//                        pass (single-shot modes print it to stdout)
//   --trace              (single-shot modes) request a distributed trace:
//                        the response carries the request's span tree —
//                        queueing, cache tiers, peer probes, every fleet
//                        hop, per-pass compile times — rendered to stdout
//                        with a verification line ("trace ok: ...").
//                        Exits 4 when the tree is malformed (a span's wall
//                        time fails to cover its children's sum)
//   --interval-ms N      (--top) poll interval (default 1000)
//   --deadline-ms N      per-request deadline override
//   --timeout-ms N       client-side receive timeout (default 120000)
//   --quiet              suppress the Table II summary
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "incr/fingerprint.h"
#include "net/client.h"
#include "obs/trace.h"
#include "service/scheduler.h"
#include "suite/suite.h"

using namespace ap;

namespace {

enum class Codec { Auto, Json, Binary };

struct Args {
  int port = -1;
  bool coordinator = false;
  int pipeline = 1;
  int batch = 0;
  Codec codec = Codec::Auto;
  std::string source_file;
  std::string annot_file;
  std::string app_name;
  bool matrix = false;
  bool ping = false;
  bool metrics = false;
  bool stats = false;
  int top = 0;
  int64_t interval_ms = 1'000;
  bool trace = false;
  bool run = false;
  bool check = false;
  bool quiet = false;
  driver::InlineConfig config = driver::InlineConfig::Annotation;
  interp::Engine engine = interp::Engine::Bytecode;
  int run_threads = 4;
  int connections = 1;
  double min_hit_rate = -1;
  int edit_loop = 0;
  std::string edit_unit;
  double min_unit_hit_rate = -1;
  int64_t deadline_ms = 0;
  int timeout_ms = 120'000;
  std::string stop_after;
  std::string print_after;
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "apclient: %s\nusage: apclient --port N [--coordinator] "
               "[FILE.f | --app NAME "
               "| --matrix | --ping | --metrics | --stats | --top N] "
               "[--trace] [--interval-ms N] [--annot FILE] "
               "[--config none|conv|annot] [--run] [--engine tree|bytecode] "
               "[--run-threads N] [--connections N] [--pipeline N] "
               "[--batch N] [--codec auto|json|binary] [--check] "
               "[--min-hit-rate F] [--edit-loop N] [--edit-unit NAME] "
               "[--min-unit-hit-rate F] "
               "[--stop-after PASS] [--print-after PASS] "
               "[--deadline-ms N] [--timeout-ms N] "
               "[--quiet]\n",
               msg);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing option value");
      return argv[++i];
    };
    if (arg == "--port") {
      a.port = std::atoi(value());
      if (a.port < 1 || a.port > 65535) usage_error("--port out of range");
    } else if (arg == "--coordinator") {
      a.coordinator = true;
    } else if (arg == "--app") {
      a.app_name = value();
    } else if (arg == "--annot") {
      a.annot_file = value();
    } else if (arg == "--matrix") {
      a.matrix = true;
    } else if (arg == "--ping") {
      a.ping = true;
    } else if (arg == "--metrics") {
      a.metrics = true;
    } else if (arg == "--stats") {
      a.stats = true;
    } else if (arg == "--top") {
      a.top = std::atoi(value());
      if (a.top < 1) usage_error("--top must be >= 1");
    } else if (arg == "--interval-ms") {
      a.interval_ms = std::atol(value());
      if (a.interval_ms < 1) usage_error("--interval-ms must be >= 1");
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--run") {
      a.run = true;
    } else if (arg == "--check") {
      a.check = true;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--config") {
      std::string_view c = value();
      if (c == "none") a.config = driver::InlineConfig::None;
      else if (c == "conv") a.config = driver::InlineConfig::Conventional;
      else if (c == "annot") a.config = driver::InlineConfig::Annotation;
      else usage_error("--config must be none, conv, or annot");
    } else if (arg == "--engine") {
      std::string_view e = value();
      if (e == "tree") a.engine = interp::Engine::Tree;
      else if (e == "bytecode") a.engine = interp::Engine::Bytecode;
      else usage_error("--engine must be tree or bytecode");
    } else if (arg == "--run-threads") {
      a.run_threads = std::atoi(value());
      if (a.run_threads < 1) usage_error("--run-threads must be >= 1");
    } else if (arg == "--connections") {
      a.connections = std::atoi(value());
      if (a.connections < 1) usage_error("--connections must be >= 1");
    } else if (arg == "--pipeline") {
      a.pipeline = std::atoi(value());
      if (a.pipeline < 1) usage_error("--pipeline must be >= 1");
    } else if (arg == "--batch") {
      a.batch = std::atoi(value());
      if (a.batch < 1) usage_error("--batch must be >= 1");
    } else if (arg == "--codec") {
      std::string_view c = value();
      if (c == "auto") a.codec = Codec::Auto;
      else if (c == "json") a.codec = Codec::Json;
      else if (c == "binary") a.codec = Codec::Binary;
      else usage_error("--codec must be auto, json, or binary");
    } else if (arg == "--min-hit-rate") {
      a.min_hit_rate = std::atof(value());
    } else if (arg == "--edit-loop") {
      a.edit_loop = std::atoi(value());
      if (a.edit_loop < 1) usage_error("--edit-loop must be >= 1");
    } else if (arg == "--edit-unit") {
      a.edit_unit = value();
    } else if (arg == "--min-unit-hit-rate") {
      a.min_unit_hit_rate = std::atof(value());
    } else if (arg == "--stop-after") {
      a.stop_after = value();
    } else if (arg == "--print-after") {
      a.print_after = value();
    } else if (arg == "--deadline-ms") {
      a.deadline_ms = std::atol(value());
      if (a.deadline_ms < 0) usage_error("--deadline-ms must be >= 0");
    } else if (arg == "--timeout-ms") {
      a.timeout_ms = std::atoi(value());
      if (a.timeout_ms < 1) usage_error("--timeout-ms must be >= 1");
    } else if (!arg.empty() && arg[0] != '-') {
      a.source_file = arg;
    } else {
      usage_error("unknown option");
    }
  }
  if (a.port < 0) usage_error("--port is required");
  int modes = (!a.source_file.empty()) + (!a.app_name.empty()) + a.matrix +
              a.ping + a.metrics + a.stats + (a.top > 0);
  if (modes != 1)
    usage_error("pick exactly one of FILE.f, --app, --matrix, --ping, "
                "--metrics, --stats, --top");
  if (a.trace && a.source_file.empty() && (a.app_name.empty() || a.edit_loop))
    usage_error("--trace applies to single-shot FILE.f / --app modes");
  if (a.batch > 0 && a.run)
    usage_error("--batch is compile-only (incompatible with --run)");
  if (a.batch > 0 && !a.matrix) usage_error("--batch requires --matrix");
  if (a.pipeline > 1 && !a.matrix) usage_error("--pipeline requires --matrix");
  if (a.edit_loop > 0 && a.app_name.empty())
    usage_error("--edit-loop requires --app");
  if ((!a.edit_unit.empty() || a.min_unit_hit_rate >= 0) && a.edit_loop == 0)
    usage_error("--edit-unit/--min-unit-hit-rate require --edit-loop");
  return a;
}

// Applies the requested codec after connecting: auto hello-negotiates
// (binary iff the server offers it), binary forces it blind, json is the
// wire default.
bool setup_codec(net::Client* client, const Args& args, std::string* err) {
  switch (args.codec) {
    case Codec::Auto:
      return client->negotiate(err);
    case Codec::Binary:
      client->set_binary(true);
      return true;
    case Codec::Json:
      return true;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

// One matrix job submitted over the wire and the response it drew.
struct WireResult {
  net::Response resp;
  bool transport_ok = false;
  std::string transport_err;
};

int run_matrix(const Args& args) {
  driver::PipelineOptions base;
  base.stop_after = args.stop_after;
  base.print_after = args.print_after;
  auto jobs = service::suite_matrix(base);
  std::vector<WireResult> wire(jobs.size());

  // `connections` clients each pull the next unclaimed job (or batch of
  // jobs); results land in job-index slots so the summary is
  // deterministic regardless of completion order.
  std::atomic<size_t> next{0};
  std::atomic<int> connect_failures{0};
  auto build_request = [&](size_t i) {
    net::Request req;
    req.type = args.run ? net::RequestType::Run : net::RequestType::Compile;
    req.name = jobs[i].app.name;
    req.source = jobs[i].app.source;
    req.annotations = jobs[i].app.annotations;
    req.options = jobs[i].opts;
    req.deadline_ms = args.deadline_ms;
    if (args.run) {
      req.interp.engine = args.engine;
      req.interp.num_threads = args.run_threads;
    }
    return req;
  };
  auto lane = [&]() {
    net::Client client;
    std::string err;
    if (!client.connect(args.port, &err, args.timeout_ms) ||
        !setup_codec(&client, args, &err)) {
      ++connect_failures;
      return;
    }
    if (args.batch > 0) {
      // Batch mode: claim `batch` consecutive jobs, send them as one
      // `compile_batch` frame, explode the N results back into job slots.
      size_t stride = static_cast<size_t>(args.batch);
      while (true) {
        size_t begin = next.fetch_add(stride);
        if (begin >= jobs.size()) return;
        size_t end = std::min(begin + stride, jobs.size());
        net::Request req;
        req.type = net::RequestType::CompileBatch;
        req.deadline_ms = args.deadline_ms;
        for (size_t i = begin; i < end; ++i)
          req.batch.push_back({jobs[i].app.name, jobs[i].app.source,
                               jobs[i].app.annotations, jobs[i].opts});
        net::Response resp;
        bool ok = client.call(std::move(req), &resp, &err);
        for (size_t i = begin; i < end; ++i) {
          wire[i].transport_ok = ok;
          if (!ok) {
            wire[i].transport_err = err;
            continue;
          }
          wire[i].resp.status = resp.status;
          wire[i].resp.error = resp.error;
          size_t k = i - begin;
          if (resp.has_batch && k < resp.batch.size()) {
            wire[i].resp.has_result = true;
            wire[i].resp.result = resp.batch[k];
            if (!resp.batch[k].ok && resp.status == net::Status::Ok) {
              wire[i].resp.status = net::Status::Error;
              wire[i].resp.error = resp.batch[k].error;
            }
          }
        }
        if (!ok) return;  // connection is unusable
      }
    }
    // Pipelined mode: keep up to `pipeline` requests in flight, matching
    // out-of-order responses to jobs by id.
    std::unordered_map<int64_t, size_t> inflight;
    bool exhausted = false;
    while (true) {
      while (!exhausted &&
             inflight.size() < static_cast<size_t>(args.pipeline)) {
        size_t i = next.fetch_add(1);
        if (i >= jobs.size()) {
          exhausted = true;
          break;
        }
        int64_t id = 0;
        if (!client.submit(build_request(i), &id, &err)) {
          wire[i].transport_err = err;
          for (auto& [rid, j] : inflight) wire[j].transport_err = err;
          return;
        }
        inflight[id] = i;
      }
      if (inflight.empty()) return;
      net::Response resp;
      if (!client.recv_any(&resp, &err)) {
        for (auto& [rid, j] : inflight) wire[j].transport_err = err;
        return;
      }
      auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;  // stale id: ignore
      wire[it->second].transport_ok = true;
      wire[it->second].resp = std::move(resp);
      inflight.erase(it);
    }
  };
  int lanes = std::min<int>(args.connections, static_cast<int>(jobs.size()));
  std::vector<std::thread> threads;
  for (int i = 1; i < lanes; ++i) threads.emplace_back(lane);
  lane();
  for (auto& t : threads) t.join();
  if (connect_failures.load() == lanes) {
    std::fprintf(stderr, "apclient: could not connect to port %d\n",
                 args.port);
    return 1;
  }

  int failed = 0;
  size_t hits = 0, answered = 0;
  std::vector<service::CompileResult> results(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto& w = wire[i];
    const char* app = jobs[i].app.name.c_str();
    const char* cfg = driver::config_name(jobs[i].opts.config);
    if (!w.transport_ok) {
      ++failed;
      std::fprintf(stderr, "apclient: %s/%s: transport error: %s\n", app, cfg,
                   w.transport_err.c_str());
      continue;
    }
    ++answered;
    if (w.resp.status != net::Status::Ok) {
      ++failed;
      std::fprintf(stderr, "apclient: %s/%s: %s: %s\n", app, cfg,
                   net::status_name(w.resp.status), w.resp.error.c_str());
      continue;
    }
    results[i] = w.resp.result;
    if (w.resp.result.cache_hit) ++hits;
    if (args.run && (!w.resp.has_run || !w.resp.run.ok)) {
      ++failed;
      std::fprintf(stderr, "apclient: %s/%s: run failed: %s\n", app, cfg,
                   w.resp.run.error.c_str());
    }
  }

  if (!args.quiet)
    std::fputs(service::table2_summary(jobs, results).c_str(), stdout);

  int mismatches = 0;
  if (args.check) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!wire[i].transport_ok) continue;
      auto local = service::to_compile_result(
          driver::run_pipeline(jobs[i].app, jobs[i].opts));
      if (local.ok != results[i].ok ||
          local.parallel_loops != results[i].parallel_loops ||
          local.code_lines != results[i].code_lines ||
          local.program_text != results[i].program_text) {
        ++mismatches;
        std::fprintf(stderr,
                     "apclient: WIRE/IN-PROCESS MISMATCH for %s/%s\n",
                     jobs[i].app.name.c_str(),
                     driver::config_name(jobs[i].opts.config));
      }
    }
    if (!mismatches)
      std::fprintf(stderr,
                   "apclient: check passed (%zu jobs identical to "
                   "in-process compilation)\n",
                   jobs.size());
  }

  double hit_rate = answered ? static_cast<double>(hits) / answered : 0.0;
  std::fprintf(stderr,
               "apclient: %zu jobs over %d connection(s), %d failed, "
               "%zu cache hits (%.0f%%)\n",
               jobs.size(), lanes, failed, hits, 100.0 * hit_rate);

  if (failed) return 1;
  if (mismatches) return 3;
  if (args.min_hit_rate >= 0 && hit_rate < args.min_hit_rate) {
    std::fprintf(stderr, "apclient: hit rate %.2f below required %.2f\n",
                 hit_rate, args.min_hit_rate);
    return 2;
  }
  return 0;
}

// --edit-loop: the editor-loop demo. Warm the daemon's unit cache with
// one cold compile of the app, then replay N single-unit edits — each a
// unique mutation, so the whole-request cache never hits and every
// iteration exercises the incremental tier. The per-iteration unit
// counters come back over the wire in the CompileResult, so this doubles
// as an end-to-end probe that the daemon really is reusing units.
int run_edit_loop(const Args& args) {
  const suite::BenchmarkApp* app = suite::find_app(args.app_name);
  if (!app) {
    std::fprintf(stderr, "apclient: unknown suite app: %s\n",
                 args.app_name.c_str());
    return 64;
  }
  std::vector<std::string> units = incr::source_unit_names(app->source);
  if (units.empty()) {
    std::fprintf(stderr, "apclient: %s: no program units found\n",
                 app->name.c_str());
    return 1;
  }
  if (!args.edit_unit.empty()) {
    if (std::find(units.begin(), units.end(), args.edit_unit) == units.end()) {
      std::fprintf(stderr, "apclient: --edit-unit %s: no such unit in %s\n",
                   args.edit_unit.c_str(), app->name.c_str());
      return 64;
    }
    units = {args.edit_unit};
  }

  net::Client client;
  std::string err;
  if (!client.connect(args.port, &err, args.timeout_ms) ||
      !setup_codec(&client, args, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  auto submit = [&](std::string source, service::CompileResult* out) -> bool {
    net::Request req;
    req.type = net::RequestType::Compile;
    req.name = app->name;
    req.source = std::move(source);
    req.annotations = app->annotations;
    req.options.config = args.config;
    req.deadline_ms = args.deadline_ms;
    net::Response resp;
    if (!client.call(std::move(req), &resp, &err)) {
      std::fprintf(stderr, "apclient: %s\n", err.c_str());
      return false;
    }
    if (resp.status != net::Status::Ok || !resp.has_result) {
      std::fprintf(stderr, "apclient: %s: %s\n", net::status_name(resp.status),
                   resp.error.c_str());
      return false;
    }
    *out = std::move(resp.result);
    return out->ok;
  };

  service::CompileResult warm;
  if (!submit(app->source, &warm)) {
    std::fprintf(stderr, "apclient: edit-loop warm-up compile failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "apclient: edit-loop warm-up: %s/%s, editing %zu unit%s, "
               "%zu unit hits / %zu misses%s\n",
               app->name.c_str(), driver::config_name(args.config),
               units.size(), units.size() == 1 ? "" : "s",
               warm.unit_hits, warm.unit_misses,
               warm.cache_hit ? " (request cache hit)" : "");

  size_t unit_hits = 0, unit_misses = 0, unit_invalidated = 0;
  int failed = 0;
  for (int iter = 1; iter <= args.edit_loop; ++iter) {
    const std::string& unit = units[(iter - 1) % units.size()];
    // The salt makes every edit textually unique: no request-level hit
    // can mask the unit-tier behaviour under test.
    std::string edited = incr::mutate_unit(app->source, unit, iter);
    if (edited == app->source) {
      std::fprintf(stderr, "apclient: edit %d: could not mutate unit %s\n",
                   iter, unit.c_str());
      ++failed;
      continue;
    }
    service::CompileResult r;
    if (!submit(std::move(edited), &r)) {
      std::fprintf(stderr, "apclient: edit %d (%s): compile failed\n", iter,
                   unit.c_str());
      ++failed;
      continue;
    }
    unit_hits += r.unit_hits;
    unit_misses += r.unit_misses;
    unit_invalidated += r.unit_invalidated;
    std::fprintf(stderr,
                 "apclient: edit %d (%s): %zu unit hits, %zu misses "
                 "(%zu invalidated by the edit)\n",
                 iter, unit.c_str(), r.unit_hits, r.unit_misses,
                 r.unit_invalidated);
  }

  size_t lookups = unit_hits + unit_misses;
  double rate = lookups ? static_cast<double>(unit_hits) / lookups : 0.0;
  std::fprintf(stderr,
               "apclient: edit-loop: %d edits, unit hit rate %.2f "
               "(%zu hits / %zu lookups, %zu invalidated)\n",
               args.edit_loop, rate, unit_hits, lookups, unit_invalidated);
  if (failed) return 1;
  if (args.min_unit_hit_rate >= 0 && rate < args.min_unit_hit_rate) {
    std::fprintf(stderr, "apclient: unit hit rate %.2f below required %.2f\n",
                 rate, args.min_unit_hit_rate);
    return 2;
  }
  return 0;
}

int run_single(const Args& args) {
  net::Request req;
  req.deadline_ms = args.deadline_ms;
  if (!args.app_name.empty()) {
    const suite::BenchmarkApp* app = suite::find_app(args.app_name);
    if (!app) {
      std::fprintf(stderr, "apclient: unknown suite app: %s\n",
                   args.app_name.c_str());
      return 64;
    }
    req.name = app->name;
    req.source = app->source;
    req.annotations = app->annotations;
  } else {
    if (!read_file(args.source_file, &req.source)) {
      std::fprintf(stderr, "apclient: cannot read %s\n",
                   args.source_file.c_str());
      return 1;
    }
    req.name = args.source_file;
    if (!args.annot_file.empty() &&
        !read_file(args.annot_file, &req.annotations)) {
      std::fprintf(stderr, "apclient: cannot read %s\n",
                   args.annot_file.c_str());
      return 1;
    }
  }
  req.options.config = args.config;
  req.options.stop_after = args.stop_after;
  req.options.print_after = args.print_after;
  req.type = args.run ? net::RequestType::Run : net::RequestType::Compile;
  req.trace = args.trace;
  if (args.run) {
    req.interp.engine = args.engine;
    req.interp.num_threads = args.run_threads;
  }

  std::string name = req.name;

  net::Client client;
  std::string err;
  if (!client.connect(args.port, &err, args.timeout_ms) ||
      !setup_codec(&client, args, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  net::Response resp;
  if (!client.call(std::move(req), &resp, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  if (resp.status != net::Status::Ok) {
    std::fprintf(stderr, "apclient: %s: %s\n", net::status_name(resp.status),
                 resp.error.c_str());
    return 1;
  }
  if (resp.has_result) {
    std::fprintf(stderr,
                 "apclient: compiled %s under %s: %zu parallel loops, "
                 "%zu lines%s%s\n",
                 name.c_str(), driver::config_name(args.config),
                 resp.result.parallel_loops.size(), resp.result.code_lines,
                 resp.result.stopped_early ? " (stopped early)" : "",
                 resp.result.cache_hit ? " (cache hit)" : "");
    if (!args.print_after.empty())
      std::fputs(resp.result.print_dump.c_str(), stdout);
  }
  if (args.run && resp.has_run) {
    std::fputs(resp.run.output.c_str(), stdout);
    std::fprintf(stderr,
                 "apclient: ran %s: %llu statements (%llu parallel) in "
                 "%.2f ms\n",
                 name.c_str(),
                 static_cast<unsigned long long>(resp.run.statements),
                 static_cast<unsigned long long>(resp.run.statements_parallel),
                 resp.run.wall_ms);
  }
  if (args.trace) {
    obs::Span root;
    if (!resp.trace.is_object() || !obs::span_from_json(resp.trace, &root)) {
      std::fprintf(stderr,
                   "apclient: trace requested but the response carried no "
                   "span tree\n");
      return 4;
    }
    std::fputs(obs::render_span_tree(root).c_str(), stdout);
    size_t spans = obs::span_count(root);
    size_t violations = obs::span_tree_violations(root);
    if (violations) {
      std::fprintf(stderr,
                   "apclient: trace MALFORMED: %zu of %zu spans have a wall "
                   "time below the sum of their children\n",
                   violations, spans);
      return 4;
    }
    std::fprintf(stderr,
                 "apclient: trace ok: %zu spans, 0 orphans, every span's "
                 "wall covers its children\n",
                 spans);
  }
  return 0;
}

int run_probe(const Args& args, net::RequestType type) {
  net::Client client;
  std::string err;
  if (!client.connect(args.port, &err, args.timeout_ms) ||
      !setup_codec(&client, args, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  net::Request req;
  req.type = type;
  net::Response resp;
  if (!client.call(std::move(req), &resp, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  if (resp.status != net::Status::Ok) {
    std::fprintf(stderr, "apclient: %s: %s\n", net::status_name(resp.status),
                 resp.error.c_str());
    return 1;
  }
  if (type == net::RequestType::Ping)
    std::printf("pong\n");
  else
    std::printf("%s\n", resp.metrics.dump(2).c_str());
  return 0;
}

// --top: poll the stats plane and render the busiest request types as a
// latency leaderboard, one refresh per round.
int run_top(const Args& args) {
  net::Client client;
  std::string err;
  if (!client.connect(args.port, &err, args.timeout_ms) ||
      !setup_codec(&client, args, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  for (int round = 0; round < args.top; ++round) {
    if (round)
      std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    net::Request req;
    req.type = net::RequestType::Stats;
    net::Response resp;
    if (!client.call(std::move(req), &resp, &err)) {
      std::fprintf(stderr, "apclient: %s\n", err.c_str());
      return 1;
    }
    if (resp.status != net::Status::Ok) {
      std::fprintf(stderr, "apclient: %s: %s\n",
                   net::status_name(resp.status), resp.error.c_str());
      return 1;
    }
    int64_t completed = 0, accepted = 0;
    if (const json::Value* server = resp.metrics.find("server")) {
      if (const json::Value* v = server->find("completed"))
        completed = v->as_int();
      if (const json::Value* v = server->find("accepted"))
        accepted = v->as_int();
    }
    std::printf("apserved stats (round %d/%d): %lld accepted, %lld "
                "completed\n",
                round + 1, args.top, static_cast<long long>(accepted),
                static_cast<long long>(completed));
    std::printf("%-18s %10s %10s %10s %10s %10s\n", "type", "count",
                "p50_ms", "p90_ms", "p99_ms", "max_ms");
    // Rows sorted by count, descending; ties keep the server's order.
    std::vector<std::pair<int64_t, const std::pair<std::string, json::Value>*>>
        rows;
    if (const json::Value* hist = resp.metrics.find("hist")) {
      for (const auto& entry : hist->members()) {
        const json::Value* count = entry.second.find("count");
        rows.push_back({count ? count->as_int() : 0, &entry});
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (const auto& [count, entry] : rows) {
      const json::Value& s = entry->second;
      auto field = [&](const char* k) {
        const json::Value* v = s.find(k);
        return v ? v->as_double() : 0.0;
      };
      std::printf("%-18s %10lld %10.3f %10.3f %10.3f %10.3f\n",
                  entry->first.c_str(), static_cast<long long>(count),
                  field("p50_ms"), field("p90_ms"), field("p99_ms"),
                  field("max_ms"));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}

// --coordinator: negotiate before submitting. Verifies the endpoint is a
// coordinator that speaks our protocol version.
int check_coordinator(const Args& args) {
  net::Client client;
  std::string err;
  if (!client.connect(args.port, &err, args.timeout_ms)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  net::HelloInfo info;
  if (!client.hello(&info, &err)) {
    std::fprintf(stderr, "apclient: %s\n", err.c_str());
    return 1;
  }
  if (info.role != "coordinator") {
    std::fprintf(stderr,
                 "apclient: endpoint on port %d is a \"%s\", not a "
                 "coordinator\n",
                 args.port, info.role.c_str());
    return 1;
  }
  if (info.version != net::kProtocolVersion) {
    std::fprintf(stderr,
                 "apclient: protocol mismatch: server speaks v%d, client "
                 "v%d\n",
                 info.version, net::kProtocolVersion);
    return 1;
  }
  if (info.draining)
    std::fprintf(stderr, "apclient: warning: coordinator is draining\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.coordinator) {
    int rc = check_coordinator(args);
    if (rc) return rc;
  }
  if (args.matrix) return run_matrix(args);
  if (args.edit_loop > 0) return run_edit_loop(args);
  if (args.ping) return run_probe(args, net::RequestType::Ping);
  if (args.metrics) return run_probe(args, net::RequestType::Metrics);
  if (args.stats) return run_probe(args, net::RequestType::Stats);
  if (args.top > 0) return run_top(args);
  return run_single(args);
}

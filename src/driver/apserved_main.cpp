// apserved — the compilation service as a long-lived network daemon.
//
// Serves the length-prefixed JSON protocol of src/net on loopback TCP.
// Three roles:
//
//   (default)      single-node: compile/run requests dispatch through the
//                  same scheduler and content-addressed cache as the
//                  batch CLI (apserve).
//   --coordinator  fleet front door: owns no compiler; shards each
//                  request by content fingerprint to a registered worker
//                  (rendezvous hashing), with retry/failover and the
//                  alive/suspect/dead health state machine (src/dist).
//   --worker       fleet member: a single-node core that additionally
//                  joins a coordinator (--join PORT), heartbeats load +
//                  cache stats, and serves/probes the distributed cache
//                  tier (cache_probe/cache_fill).
//
// All roles run until SIGINT or SIGTERM, then drain gracefully: stop
// accepting, finish in-flight work, flush responses (workers announce a
// `leaving` heartbeat), write the telemetry report, exit 0.
//
//   apserved [--coordinator | --worker --join PORT] [--port N]
//            [--threads N] [--cache-dir DIR] [--cache-capacity N]
//            [--cache-max-mb N] [--max-queue N] [--request-timeout-ms N]
//            [--drain-timeout-ms N] [--idle-timeout-ms N] [--json FILE]
//            [--id ID] [--heartbeat-ms N] [--suspect-after-ms N]
//            [--dead-after-ms N] [--max-attempts N] [--replicate N]
//
//   --port N               listen port; 0 (default) picks an ephemeral
//                          port. Either way the bound port is printed to
//                          stdout as "apserved: listening on port N"
//   --threads N            worker lanes (default: hardware concurrency);
//                          ignored by --coordinator, which forwards on
//                          its event loop and has no lanes
//   --cache-dir DIR        enable the on-disk cache tier under DIR
//   --cache-capacity N     memory-tier LRU capacity (default 256)
//   --cache-max-mb N       disk-tier byte budget in MiB (0 = unlimited)
//   --max-queue N          admission-queue bound; beyond it requests are
//                          answered `overloaded` (default 256)
//   --request-timeout-ms N default per-request deadline; expired requests
//                          are answered `deadline_exceeded` (default
//                          30000, 0 = no deadline)
//   --drain-timeout-ms N   hard bound on graceful drain (default 30000)
//   --idle-timeout-ms N    reap connections idle this long (default
//                          300000, 0 = never)
//   --json FILE            write the telemetry JSON on shutdown ("-" =
//                          stdout, the default)
//   --join HOST:PORT       (--worker) the coordinator's address; a bare
//                          PORT means 127.0.0.1; required
//   --host HOST            (--worker) the address this worker advertises
//                          to the fleet — what the coordinator and peers
//                          dial it back on (default 127.0.0.1); a
//                          hostname is resolved once, at start
//   --id ID                (--worker) stable worker identity (default:
//                          derived from pid + port)
//   --heartbeat-ms N       (--worker) heartbeat interval (default 500)
//   --suspect-after-ms N   (--coordinator) heartbeat silence before a
//                          worker is suspect (default 2000)
//   --dead-after-ms N      (--coordinator) ... before it is dead (6000)
//   --max-attempts N       (--coordinator) distinct workers tried per
//                          request before giving up (default 3)
//   --replicate N          (--worker) peers to push each fresh result to
//                          (default 1)
//   --incremental          enable the unit-granular incremental cache
//                          (src/incr) in the single-node and --worker
//                          roles: a request-level miss reuses the
//                          parallelize result of every unit whose
//                          CALL/COMMON dependence closure is unchanged;
//                          held in this process's memory only (never on
//                          disk, never shared with peers)
//   --slow-ms N            dump the flight recorder (the ring of recent
//                          request events) to stderr whenever a request
//                          exceeds N ms (default 0 = never). SIGUSR1
//                          dumps the ring on demand in every role.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "incr/unit_cache.h"
#include "net/server.h"

using namespace ap;

namespace {

struct Args {
  bool coordinator = false;
  bool worker = false;
  int join_port = 0;
  std::string join_host = "127.0.0.1";
  std::string host = "127.0.0.1";
  std::string worker_id;
  int port = 0;
  int threads = 0;  // 0 = hardware concurrency
  std::string cache_dir;
  size_t cache_capacity = 256;
  size_t cache_max_mb = 0;
  size_t max_queue = 256;
  int64_t request_timeout_ms = 30'000;
  int64_t drain_timeout_ms = 30'000;
  int64_t idle_timeout_ms = 300'000;
  int64_t heartbeat_ms = 500;
  int64_t suspect_after_ms = 2'000;
  int64_t dead_after_ms = 6'000;
  int max_attempts = 3;
  int replicate = 1;
  int64_t slow_ms = 0;
  bool incremental = false;
  std::string json_out = "-";
};

// The unit-granular incremental tier (enabled by --incremental); shared by
// the single-node and worker serving paths.
std::unique_ptr<incr::UnitCache> make_unit_cache(const Args& args) {
  if (!args.incremental) return nullptr;
  return std::make_unique<incr::UnitCache>();
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(
      stderr,
      "apserved: %s\nusage: apserved [--coordinator | --worker --join "
      "[HOST:]PORT [--host HOST]] "
      "[--port N] [--threads N (not --coordinator)] [--cache-dir DIR] "
      "[--cache-capacity N] "
      "[--cache-max-mb N] [--max-queue N] [--request-timeout-ms N] "
      "[--drain-timeout-ms N] [--idle-timeout-ms N] [--json FILE] [--id ID] "
      "[--heartbeat-ms N] [--suspect-after-ms N] [--dead-after-ms N] "
      "[--max-attempts N] [--replicate N] [--slow-ms N] [--incremental]\n",
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
    if (arg == "--coordinator") {
      a.coordinator = true;
    } else if (arg == "--worker") {
      a.worker = true;
    } else if (arg == "--join") {
      // HOST:PORT, or a bare PORT meaning 127.0.0.1.
      std::string v = value();
      size_t colon = v.rfind(':');
      if (colon != std::string::npos) {
        if (colon == 0) usage_error("--join HOST:PORT has an empty host");
        a.join_host = v.substr(0, colon);
        v = v.substr(colon + 1);
      }
      a.join_port = std::atoi(v.c_str());
      if (a.join_port < 1 || a.join_port > 65535)
        usage_error("--join out of range");
    } else if (arg == "--host") {
      a.host = value();
      if (a.host.empty()) usage_error("--host must not be empty");
    } else if (arg == "--id") {
      a.worker_id = value();
    } else if (arg == "--port") {
      a.port = std::atoi(value());
      if (a.port < 0 || a.port > 65535) usage_error("--port out of range");
    } else if (arg == "--threads") {
      a.threads = std::atoi(value());
      if (a.threads < 1) usage_error("--threads must be >= 1");
    } else if (arg == "--cache-dir") {
      a.cache_dir = value();
    } else if (arg == "--cache-capacity") {
      long v = std::atol(value());
      if (v < 1) usage_error("--cache-capacity must be >= 1");
      a.cache_capacity = static_cast<size_t>(v);
    } else if (arg == "--cache-max-mb") {
      long v = std::atol(value());
      if (v < 0) usage_error("--cache-max-mb must be >= 0");
      a.cache_max_mb = static_cast<size_t>(v);
    } else if (arg == "--max-queue") {
      long v = std::atol(value());
      if (v < 1) usage_error("--max-queue must be >= 1");
      a.max_queue = static_cast<size_t>(v);
    } else if (arg == "--request-timeout-ms") {
      a.request_timeout_ms = std::atol(value());
      if (a.request_timeout_ms < 0)
        usage_error("--request-timeout-ms must be >= 0");
    } else if (arg == "--drain-timeout-ms") {
      a.drain_timeout_ms = std::atol(value());
      if (a.drain_timeout_ms < 1)
        usage_error("--drain-timeout-ms must be >= 1");
    } else if (arg == "--idle-timeout-ms") {
      a.idle_timeout_ms = std::atol(value());
      if (a.idle_timeout_ms < 0) usage_error("--idle-timeout-ms must be >= 0");
    } else if (arg == "--heartbeat-ms") {
      a.heartbeat_ms = std::atol(value());
      if (a.heartbeat_ms < 1) usage_error("--heartbeat-ms must be >= 1");
    } else if (arg == "--suspect-after-ms") {
      a.suspect_after_ms = std::atol(value());
      if (a.suspect_after_ms < 1)
        usage_error("--suspect-after-ms must be >= 1");
    } else if (arg == "--dead-after-ms") {
      a.dead_after_ms = std::atol(value());
      if (a.dead_after_ms < 1) usage_error("--dead-after-ms must be >= 1");
    } else if (arg == "--max-attempts") {
      a.max_attempts = std::atoi(value());
      if (a.max_attempts < 1) usage_error("--max-attempts must be >= 1");
    } else if (arg == "--replicate") {
      a.replicate = std::atoi(value());
      if (a.replicate < 0) usage_error("--replicate must be >= 0");
    } else if (arg == "--slow-ms") {
      a.slow_ms = std::atol(value());
      if (a.slow_ms < 0) usage_error("--slow-ms must be >= 0");
    } else if (arg == "--incremental") {
      a.incremental = true;
    } else if (arg == "--json") {
      a.json_out = value();
    } else {
      usage_error("unknown option");
    }
  }
  if (a.coordinator && a.worker)
    usage_error("--coordinator and --worker are mutually exclusive");
  if (a.worker && a.join_port == 0)
    usage_error("--worker requires --join PORT");
  if (!a.worker && a.join_port != 0)
    usage_error("--join only applies to --worker");
  return a;
}

// Signal handlers may only touch async-signal-safe state: write one byte
// to the server's self-pipe — 'q' begins the drain (SIGINT/SIGTERM), 'u'
// dumps the flight recorder to stderr (SIGUSR1).
volatile sig_atomic_t g_wake_fd = -1;

void on_signal(int signum) {
  int fd = g_wake_fd;
  if (fd >= 0) {
    char c = signum == SIGUSR1 ? 'u' : 'q';
    [[maybe_unused]] ssize_t n = ::write(fd, &c, 1);
  }
}

void install_signal_handlers(int wake_fd) {
  g_wake_fd = wake_fd;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGUSR1, &sa, nullptr);
}

int write_report(const Args& args, service::Telemetry& telemetry) {
  std::string json = telemetry.to_json();
  if (args.json_out == "-") {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::ofstream f(args.json_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "apserved: cannot write %s\n", args.json_out.c_str());
    return 1;
  }
  f << json;
  return 0;
}

int run_coordinator(const Args& args) {
  service::Telemetry telemetry;
  dist::CoordinatorOptions co;
  co.port = args.port;
  co.max_queue = args.max_queue;
  co.request_timeout_ms = args.request_timeout_ms;
  co.drain_timeout_ms = args.drain_timeout_ms;
  co.idle_timeout_ms = args.idle_timeout_ms;
  co.max_attempts = args.max_attempts;
  co.membership.suspect_after_ms = args.suspect_after_ms;
  co.membership.dead_after_ms = args.dead_after_ms;
  co.slow_ms = args.slow_ms;
  co.telemetry = &telemetry;

  dist::Coordinator coordinator(co);
  std::string err;
  if (!coordinator.start(&err)) {
    std::fprintf(stderr, "apserved: %s\n", err.c_str());
    return 1;
  }
  install_signal_handlers(coordinator.wake_fd());
  std::printf("apserved: listening on port %d\n", coordinator.port());
  std::fprintf(stderr, "apserved: coordinator ready (workers join with "
                       "--worker --join %d)\n", coordinator.port());
  std::fflush(stdout);

  coordinator.wait();

  service::FleetStats fs = coordinator.fleet_stats();
  int rc = write_report(args, telemetry);
  std::fprintf(stderr,
               "apserved: coordinator drained; %llu forwarded, %llu retries, "
               "%llu failovers, %llu worker_lost, %llu joined, %llu left, "
               "%llu dead\n",
               static_cast<unsigned long long>(fs.forwarded),
               static_cast<unsigned long long>(fs.retries),
               static_cast<unsigned long long>(fs.failovers),
               static_cast<unsigned long long>(fs.worker_lost),
               static_cast<unsigned long long>(fs.workers_joined),
               static_cast<unsigned long long>(fs.workers_left),
               static_cast<unsigned long long>(fs.workers_dead));
  return rc;
}

int run_worker(const Args& args) {
  service::ResultCache cache(args.cache_capacity, args.cache_dir,
                             args.cache_max_mb * 1024 * 1024);
  std::unique_ptr<incr::UnitCache> unit_cache = make_unit_cache(args);
  service::Telemetry telemetry;
  dist::WorkerOptions wo;
  wo.id = args.worker_id;
  wo.port = args.port;
  wo.threads = args.threads;
  wo.max_queue = args.max_queue;
  wo.request_timeout_ms = args.request_timeout_ms;
  wo.drain_timeout_ms = args.drain_timeout_ms;
  wo.idle_timeout_ms = args.idle_timeout_ms;
  wo.host = args.host;
  wo.coordinator_host = args.join_host;
  wo.coordinator_port = args.join_port;
  wo.heartbeat_interval_ms = args.heartbeat_ms;
  wo.replicate = args.replicate;
  wo.slow_ms = args.slow_ms;
  wo.cache = &cache;
  wo.telemetry = &telemetry;
  wo.unit_cache = unit_cache.get();

  dist::Worker worker(wo);
  std::string err;
  if (!worker.start(&err)) {
    std::fprintf(stderr, "apserved: %s\n", err.c_str());
    return 1;
  }
  install_signal_handlers(worker.wake_fd());
  std::printf("apserved: listening on port %d\n", worker.port());
  std::fprintf(stderr, "apserved: worker %s joined coordinator on port %d\n",
               worker.id().c_str(), args.join_port);
  std::fflush(stdout);

  worker.wait();

  telemetry.record_cache_stats(cache.stats());
  telemetry.record_peer_cache_stats(worker.peer_stats());
  if (unit_cache) telemetry.record_incr_stats(unit_cache->stats());
  service::PeerCacheStats ps = worker.peer_stats();
  int rc = write_report(args, telemetry);
  std::fprintf(stderr,
               "apserved: worker drained; %llu probes (%llu hits), "
               "%llu fills sent, %llu received, %llu peer hits\n",
               static_cast<unsigned long long>(ps.probes_sent),
               static_cast<unsigned long long>(ps.probe_hits),
               static_cast<unsigned long long>(ps.fills_sent),
               static_cast<unsigned long long>(ps.fills_received),
               static_cast<unsigned long long>(ps.peer_hits));
  return rc;
}

int run_single(const Args& args) {
  service::ResultCache cache(args.cache_capacity, args.cache_dir,
                             args.cache_max_mb * 1024 * 1024);
  std::unique_ptr<incr::UnitCache> unit_cache = make_unit_cache(args);
  service::Telemetry telemetry;
  // The daemon's own worker lanes provide the concurrency; the scheduler
  // is used for its cache-aware dispatch, not its pool.
  service::Scheduler::Options sopts;
  sopts.threads = 1;
  sopts.cache = &cache;
  sopts.telemetry = &telemetry;
  sopts.unit_cache = unit_cache.get();
  service::Scheduler scheduler(sopts);

  net::ServerOptions nopts;
  nopts.port = args.port;
  nopts.threads = args.threads;
  nopts.max_queue = args.max_queue;
  nopts.request_timeout_ms = args.request_timeout_ms;
  nopts.drain_timeout_ms = args.drain_timeout_ms;
  nopts.idle_timeout_ms = args.idle_timeout_ms;
  nopts.scheduler = &scheduler;
  nopts.telemetry = &telemetry;
  nopts.slow_ms = args.slow_ms;

  net::Server server(nopts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "apserved: %s\n", err.c_str());
    return 1;
  }
  install_signal_handlers(server.wake_fd());
  std::printf("apserved: listening on port %d\n", server.port());
  std::fflush(stdout);

  server.wait();  // returns when a signal (or begin_drain) finished draining

  service::ServerStats ss = server.stats();
  telemetry.record_cache_stats(cache.stats());
  if (unit_cache) telemetry.record_incr_stats(unit_cache->stats());
  int rc = write_report(args, telemetry);
  std::fprintf(stderr,
               "apserved: drained; %llu connections, %llu accepted, "
               "%llu completed, %llu overloaded, %llu timed out, "
               "%llu protocol errors, %llu idle-closed, queue peak %lld\n",
               static_cast<unsigned long long>(ss.connections),
               static_cast<unsigned long long>(ss.accepted),
               static_cast<unsigned long long>(ss.completed),
               static_cast<unsigned long long>(ss.rejected_overload),
               static_cast<unsigned long long>(ss.timed_out),
               static_cast<unsigned long long>(ss.protocol_errors),
               static_cast<unsigned long long>(ss.idle_closed),
               static_cast<long long>(ss.queue_depth_peak));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    args.threads = hw ? static_cast<int>(hw) : 1;
  }
  if (args.coordinator) return run_coordinator(args);
  if (args.worker) return run_worker(args);
  return run_single(args);
}

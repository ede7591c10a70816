// apserve — batch compilation service CLI.
//
// Compiles the full 12×3 suite matrix (every mini-PERFECT app under the
// three inlining configurations of Table II) concurrently through the
// service scheduler and content-addressed result cache, then prints the
// Table-II-style summary and the JSON telemetry report.
//
//   apserve [--threads N] [--cache-dir DIR] [--cache-capacity N]
//           [--cache-max-mb N] [--json FILE] [--min-hit-rate F]
//           [--check-sequential] [--quiet]
//           [--stop-after PASS] [--print-after PASS]
//           [--run] [--engine tree|bytecode] [--run-threads N]
//
//   --threads N         worker lanes (default: hardware concurrency)
//   --cache-dir DIR     enable the on-disk cache tier under DIR
//   --cache-capacity N  memory-tier LRU capacity in entries (default 256)
//   --cache-max-mb N    disk-tier byte budget in MiB; oldest entries are
//                       evicted on store once exceeded (0 = unlimited)
//   --incremental       enable the unit-granular incremental cache
//                       (src/incr): request-level misses reuse the
//                       parallelize result of every unit whose CALL/COMMON
//                       dependence closure is unchanged; held in memory
//                       only, for the life of the process
//   --json FILE         write the telemetry JSON to FILE ("-" = stdout,
//                       the default)
//   --min-hit-rate F    exit 2 unless cache hits / jobs >= F (CI warm-run
//                       guard)
//   --check-sequential  re-run the matrix sequentially without the cache
//                       and exit 3 on any verdict mismatch (determinism
//                       proof)
//   --quiet             suppress the Table II summary
//   --stop-after PASS   stop every pipeline after the named pass (parse,
//                       conv-inline, annot-inline, normalize, parallelize,
//                       reverse-inline, collect-metrics); later metrics
//                       are empty
//   --print-after PASS  print each job's program as unparsed after the
//                       named pass (debugging aid)
//   --run               execute every successfully compiled program on the
//                       interpreter and record per-run telemetry (engine,
//                       wall time, bytecode compile time, instruction and
//                       statement counters) in the JSON "execs" section;
//                       exit 4 if any run fails
//   --engine E          interpreter engine for --run: "bytecode" (default)
//                       or "tree" (the reference walker)
//   --run-threads N     interpreter threads for --run (default 4)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "incr/unit_cache.h"
#include "interp/interp.h"
#include "service/scheduler.h"

using namespace ap;

namespace {

struct Args {
  int threads = 0;  // 0 = hardware concurrency
  std::string cache_dir;
  size_t cache_capacity = 256;
  size_t cache_max_mb = 0;  // disk-tier byte budget; 0 = unlimited
  bool incremental = false;
  std::string json_out = "-";
  double min_hit_rate = -1;
  bool check_sequential = false;
  bool quiet = false;
  std::string stop_after;
  std::string print_after;
  bool run = false;
  interp::Engine engine = interp::Engine::Bytecode;
  int run_threads = 4;
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "apserve: %s\nusage: apserve [--threads N] [--cache-dir DIR] "
               "[--cache-capacity N] [--cache-max-mb N] [--incremental] "
               "[--json FILE] "
               "[--min-hit-rate F] "
               "[--check-sequential] [--quiet] "
               "[--stop-after PASS] [--print-after PASS] [--run] "
               "[--engine tree|bytecode] [--run-threads N]\n",
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
    if (arg == "--threads") {
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
    } else if (arg == "--incremental") {
      a.incremental = true;
    } else if (arg == "--json") {
      a.json_out = value();
    } else if (arg == "--min-hit-rate") {
      a.min_hit_rate = std::atof(value());
    } else if (arg == "--check-sequential") {
      a.check_sequential = true;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--stop-after") {
      a.stop_after = value();
    } else if (arg == "--print-after") {
      a.print_after = value();
    } else if (arg == "--run") {
      a.run = true;
    } else if (arg == "--engine") {
      std::string_view e = value();
      if (e == "tree") a.engine = interp::Engine::Tree;
      else if (e == "bytecode") a.engine = interp::Engine::Bytecode;
      else usage_error("--engine must be tree or bytecode");
    } else if (arg == "--run-threads") {
      a.run_threads = std::atoi(value());
      if (a.run_threads < 1) usage_error("--run-threads must be >= 1");
    } else {
      usage_error("unknown option");
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    args.threads = hw ? static_cast<int>(hw) : 1;
  }

  service::ResultCache cache(args.cache_capacity, args.cache_dir,
                             args.cache_max_mb * 1024 * 1024);
  std::unique_ptr<incr::UnitCache> unit_cache;
  if (args.incremental) unit_cache = std::make_unique<incr::UnitCache>();
  service::Telemetry telemetry;
  service::Scheduler::Options sopts;
  sopts.threads = args.threads;
  sopts.cache = &cache;
  sopts.telemetry = &telemetry;
  sopts.unit_cache = unit_cache.get();
  service::Scheduler scheduler(sopts);

  driver::PipelineOptions base;
  base.stop_after = args.stop_after;
  base.print_after = args.print_after;
  auto jobs = service::suite_matrix(base);
  auto results = scheduler.run_batch(jobs);

  int failed = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      ++failed;
      std::fprintf(stderr, "apserve: job %s/%s FAILED: %s\n",
                   jobs[i].app.name.c_str(),
                   driver::config_name(jobs[i].opts.config),
                   results[i].error.c_str());
    }
  }

  if (!args.print_after.empty()) {
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) continue;
      std::printf("=== %s/%s after %s ===\n%s", jobs[i].app.name.c_str(),
                  driver::config_name(jobs[i].opts.config),
                  args.print_after.c_str(), results[i].print_dump.c_str());
    }
  }

  if (!args.quiet)
    std::fputs(service::table2_summary(jobs, results).c_str(), stdout);

  if (args.check_sequential) {
    int mismatches = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      auto seq =
          service::to_compile_result(driver::run_pipeline(jobs[i].app,
                                                          jobs[i].opts));
      if (seq.parallel_loops != results[i].parallel_loops ||
          seq.code_lines != results[i].code_lines ||
          seq.program_text != results[i].program_text) {
        ++mismatches;
        std::fprintf(stderr,
                     "apserve: DETERMINISM MISMATCH for %s/%s vs sequential\n",
                     jobs[i].app.name.c_str(),
                     driver::config_name(jobs[i].opts.config));
      }
    }
    if (mismatches) return 3;
    std::fprintf(stderr,
                 "apserve: sequential check passed (%zu jobs identical)\n",
                 jobs.size());
  }

  int run_failed = 0;
  if (args.run) {
    const char* engine_name =
        args.engine == interp::Engine::Tree ? "tree" : "bytecode";
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) continue;
      service::ExecRecord er;
      er.app = jobs[i].app.name;
      er.config = driver::config_name(jobs[i].opts.config);
      er.engine = engine_name;
      er.threads = args.run_threads;

      // The cached program_text loses the in-memory OMP metadata (the
      // parser treats !$OMP as a comment), so re-run the pipeline and
      // execute the annotated AST.
      auto pr = driver::run_pipeline(jobs[i].app, jobs[i].opts);
      if (!pr.ok || !pr.program) {
        ++run_failed;
        std::fprintf(stderr, "apserve: %s/%s: recompile for --run failed\n",
                     er.app.c_str(), er.config.c_str());
        telemetry.record_exec(er);
        continue;
      }
      interp::InterpOptions io;
      io.engine = args.engine;
      io.num_threads = args.run_threads;
      using clock = std::chrono::steady_clock;
      auto t0 = clock::now();
      interp::Interpreter it(*pr.program, io);
      auto r = it.run();
      er.wall_ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count();
      er.ok = r.ok;
      er.bytecode_compile_ms = r.bytecode_compile_ms;
      er.instructions = r.instructions_executed;
      er.statements = r.statements_executed;
      er.statements_parallel = r.statements_in_parallel;
      telemetry.record_exec(er);
      if (!r.ok) {
        ++run_failed;
        std::fprintf(stderr, "apserve: %s/%s: run FAILED: %s\n",
                     er.app.c_str(), er.config.c_str(), r.error.c_str());
      }
    }
    std::fprintf(stderr, "apserve: executed %zu programs on the %s engine, "
                 "%d failed\n", results.size() - static_cast<size_t>(failed),
                 engine_name, run_failed);
  }

  std::string json = telemetry.to_json();
  if (args.json_out == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream f(args.json_out, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "apserve: cannot write %s\n",
                   args.json_out.c_str());
      return 1;
    }
    f << json;
  }

  size_t hits = telemetry.cache_hits();
  std::fprintf(stderr,
               "apserve: %zu jobs, %d failed, %zu cache hits (%.0f%%), "
               "%d threads\n",
               jobs.size(), failed, hits, 100.0 * telemetry.hit_rate(),
               scheduler.threads());

  if (failed) return 1;
  if (run_failed) return 4;
  if (args.min_hit_rate >= 0 && telemetry.hit_rate() < args.min_hit_rate) {
    std::fprintf(stderr, "apserve: hit rate %.2f below required %.2f\n",
                 telemetry.hit_rate(), args.min_hit_rate);
    return 2;
  }
  return 0;
}

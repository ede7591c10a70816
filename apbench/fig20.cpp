// fig20_run: the interpreter run behind the paper's Fig. 20. Set-up compiles
// the 36 (app, config) programs in-process; the timed phase sweeps over all
// of them in a seeded order, constructing an interp::Interpreter and calling
// run() for each, at min(4, cores) threads with the OMP marks honoured. No
// empirical tuning: its decisions depend on timing, so the measured
// programs would change from run to run.
#include <memory>
#include <numeric>

#include "apbench/bench.h"
#include "interp/interp.h"

namespace apbench {

namespace {

namespace interp = ap::interp;

// An untraced run repeats the set-up this many times before every sweep,
// so setup_s is a median over the whole run rather than a reading of the
// host's speed in its first fraction of a second.
constexpr int kSetupRepsPerSweep = 2;
constexpr double kWarmupShare = 0.1;

}  // namespace

void run_fig20(const RunConfig& cfg, Report& rep, SpanLog& spans) {
  const auto& jobs = matrix();
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<ap::fir::Program>> programs;
  // One set-up: compiles the 36 programs and, when all compile, replaces
  // `programs` with them.
  auto set_up = [&] {
    std::vector<std::unique_ptr<ap::fir::Program>> compiled;
    auto t0 = Clock::now();
    for (const auto& job : jobs) {
      auto res = ap::driver::run_pipeline(job.app, job.opts);
      if (!res.ok) {
        rep.check(false, "compile failed: " + job.app.name);
        return false;
      }
      compiled.push_back(std::move(res.program));
    }
    setup_s.push_back(ms_since(t0) / 1000);
    programs = std::move(compiled);
    return true;
  };
  if (!set_up()) return;

  // The oracle: a serial run of each program on the tree engine.
  struct Expected {
    std::string output;
    uint64_t statements = 0;
  };
  std::vector<Expected> expected;
  for (const auto& prog : programs) {
    interp::InterpOptions o;
    o.engine = interp::Engine::Tree;
    o.enable_parallel = false;
    interp::Interpreter it(*prog, o);
    interp::RunResult r = it.run();
    rep.check(r.ok, "reference run failed");
    expected.push_back({r.output, r.statements_executed});
  }

  // Sweep k runs the programs in a seeded order of its own.
  auto sweep_order = [&](uint64_t k) {
    std::vector<size_t> order(programs.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + k);
    for (size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);
    return order;
  };
  for (uint64_t k = 0, drawn = 0; drawn < kDigestInputs; ++k)
    for (size_t p : sweep_order(k))
      if (drawn++ < kDigestInputs)
        rep.digest = fold_input(rep.digest, {static_cast<int>(p), "", 0});
  uint64_t sweeps = 0;
  std::vector<double> lag;
  double traced_bc_ms = 0;
  Clock::time_point last_end = Clock::now();

  // One sweep over all programs; appends each run's latency to *lat and,
  // when traced, spans around construction and run().
  auto sweep = [&](std::vector<double>* lat, bool traced) {
    for (size_t p : sweep_order(sweeps++)) {
      interp::InterpOptions o;
      o.num_threads = bench_lanes();
      auto t0 = Clock::now();
      lag.push_back(ms_between(last_end, t0));
      std::unique_ptr<interp::Interpreter> it;
      interp::RunResult r;
      if (traced) {
        Scope op(spans, "request", rep.attempted);
        {
          Scope s(spans, "interp.construct", rep.attempted, op.id());
          it = std::make_unique<interp::Interpreter>(*programs[p], o);
        }
        Scope s(spans, "interp.run", rep.attempted, op.id());
        r = it->run();
        traced_bc_ms += r.bytecode_compile_ms;
      } else {
        it = std::make_unique<interp::Interpreter>(*programs[p], o);
        r = it->run();
      }
      last_end = Clock::now();
      lat->push_back(ms_between(t0, last_end));
      ++rep.attempted;
      if (!r.ok || r.output != expected[p].output ||
          r.statements_executed != expected[p].statements)
        ++rep.failed;
    }
  };
  // Whole sweeps until `seconds` of sweeping have passed, so every program
  // weighs the same in the latency sample. Returns the seconds swept; the
  // repeated set-ups between sweeps are not counted. Each sweep's programs
  // per second go to sweep_rates.
  std::vector<double> sweep_rates;
  auto sweeps_for = [&](double seconds, std::vector<double>* lat, bool traced) {
    double wall = 0;
    do {
      for (int r = 0; r < kSetupRepsPerSweep && !cfg.trace; ++r)
        if (!set_up()) return wall;
      auto t0 = Clock::now();
      last_end = t0;
      sweep(lat, traced);
      double s = ms_since(t0) / 1000;
      sweep_rates.push_back(static_cast<double>(programs.size()) / s);
      wall += s;
    } while (wall < seconds);
    return wall;
  };

  std::vector<double> warmup;
  sweeps_for(kWarmupShare * cfg.seconds, &warmup, false);
  lag.clear();
  sweep_rates.clear();
  const double measured = (1 - kWarmupShare) * cfg.seconds;
  if (!cfg.trace) {
    std::vector<double> lat;
    sweeps_for(measured, &lat, false);
    rep.set_sample("setup_s", median(setup_s), "s", setup_s);
    rep.set_sample("lat_p50_ms", quantile(lat, 0.5), "ms", lat);
    // The median of the sweeps' p99s; a sweep runs every program once.
    rep.set_sample("lat_p99_ms",
                   windowed_quantile(lat, 0.99, lat.size() / programs.size()),
                   "ms", lat);
    rep.set_sample("capacity_ops_s", median(sweep_rates), "1/s", sweep_rates);
    return;
  }

  std::vector<double> untraced_ms, traced_ms;
  double cpu0 = thread_cpu_s();
  double wall = sweeps_for(measured / 2, &untraced_ms, false);
  wall += sweeps_for(measured / 2, &traced_ms, true);
  double cpu = thread_cpu_s() - cpu0;
  rep.set_sample("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms", lag);
  rep.set("loadgen.cpu_frac", ratio(cpu, wall), "frac");
  rep.set("trace.overhead_frac",
          ratio(median(traced_ms), median(untraced_ms)) - 1, "frac");
  // No fleet and no unit cache on this path.
  for (const char* name : {"service.hit_frac", "dist.unit_peer_frac",
                           "incr.unit_hit_frac"})
    rep.set(name, 0, "frac");
  for (const char* name : {"service.evictions", "dist.forwarded",
                           "dist.failovers", "incr.invalidated_per_edit"})
    rep.set(name, 0, "count");

  // A traced run's blocking path: the bytecode compile inside construction,
  // then run(). The rest of construction (storage, the thread pool) and the
  // bench's own bookkeeping are the uncovered part.
  auto self = spans.self_times();
  double ops = static_cast<double>(traced_ms.size());
  double path = ratio(traced_bc_ms, ops) + self["interp.run"].mean();
  double op_ms = mean(traced_ms);
  rep.set("trace.covered_frac", ratio(path, op_ms), "frac", traced_ms.size());
  rep.set("trace.uncovered_ms", op_ms - path, "ms", traced_ms.size());

  std::vector<CompileInput> sample = probe_sample(false, cfg.seed);
  probe_layers(sample, cfg.seconds, cfg.seed, spans, rep);
  probe_fresh_fleet(sample, spans, rep);
}

}  // namespace apbench

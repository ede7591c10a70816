#include "driver/pipeline.h"

#include <chrono>

#include "driver/passes.h"
#include "incr/artifacts.h"
#include "interp/interp.h"
#include "support/fnv.h"
#include "support/thread_pool.h"

namespace ap::driver {

const char* config_name(InlineConfig c) {
  switch (c) {
    case InlineConfig::None: return "no-inlining";
    case InlineConfig::Conventional: return "conventional";
    case InlineConfig::Annotation: return "annotation-based";
  }
  return "?";
}

const pm::PassRecord* PipelineTimings::find(std::string_view name) const {
  for (const auto& rec : passes)
    if (rec.name == name) return &rec;
  return nullptr;
}

double PipelineTimings::pass_ms(std::string_view name) const {
  const pm::PassRecord* rec = find(name);
  return rec ? rec->wall_ms : 0;
}

uint64_t hash_pipeline_options(uint64_t h, const PipelineOptions& o) {
  // Field order is part of the persisted key; append-only (bump the cache
  // format versions when an existing field changes meaning).
  h = fnv_u64(h, static_cast<uint64_t>(static_cast<int>(o.config)));
  h = fnv_u64(h, static_cast<uint64_t>(o.par.min_trip));
  h = fnv_u64(h, (o.par.normalize ? 1u : 0u) | (o.par.mark_nested ? 2u : 0u) |
                     (o.par.use_banerjee ? 4u : 0u) |
                     (o.par.use_siv_refinement ? 8u : 0u) |
                     (o.par.collect_all_blockers ? 16u : 0u));
  h = fnv_u64(h, static_cast<uint64_t>(o.conv.max_stmts));
  h = fnv_u64(h, static_cast<uint64_t>(o.conv.max_callee_calls));
  h = fnv_u64(h, (o.conv.require_in_loop ? 1u : 0u) |
                     (o.conv.eliminate_dead_units ? 2u : 0u));
  h = fnv_u64(h, static_cast<uint64_t>(o.conv.max_passes));
  h = fnv_u64(h, o.annot.require_in_loop ? 1u : 0u);
  h = fnv_u64(h, (o.reverse.tolerate_reordering ? 1u : 0u) |
                     (o.reverse.tolerate_forward_subst ? 2u : 0u) |
                     (o.reverse.tolerate_literals ? 4u : 0u) |
                     (o.reverse.fallback_to_hints ? 8u : 0u));
  h = fnv1a(h, o.stop_after);
  h = fnv1a(h, std::string_view("\0", 1));
  h = fnv1a(h, o.print_after);
  h = fnv1a(h, std::string_view("\0", 1));
  return h;
}

PipelineResult run_pipeline(const suite::BenchmarkApp& app,
                            const PipelineOptions& opts) {
  using clock = std::chrono::steady_clock;
  auto t_start = clock::now();

  PipelineResult result;
  DiagnosticEngine diags;
  diags.set_stream(app.name);

  PipelineContext cx;
  cx.app = &app;
  cx.opts = opts;
  cx.result = &result;

  pm::PassManagerOptions mopts;
  mopts.verify = opts.verify || pm::verify_enabled();
  mopts.stop_after = opts.stop_after;
  mopts.print_after = opts.print_after;
  std::unique_ptr<ThreadPool> local_pool;
  if (opts.unit_pool) {
    mopts.pool = opts.unit_pool;
  } else if (opts.unit_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(opts.unit_threads);
    mopts.pool = local_pool.get();
  }

  // Pass-boundary artifact store: one plan over the ORIGINAL source keys
  // the one snapshotting pass, parallelize, scoped by the whole pipeline
  // option hash. The parse pass builds the plan from its program,
  // before any inliner runs. The plan fingerprints the pre-inline
  // CALL/COMMON graph, so a post-inline unit's key covers every input that
  // can shape it (inlining only moves content inward from the closure; the
  // inliners' fresh-name counters are per-unit deterministic). Unusable
  // plans (token split disagreeing with the parse) degrade to compiling
  // every unit.
  std::unique_ptr<incr::PassArtifacts> artifacts;
  if (opts.unit_cache) {
    artifacts = std::make_unique<incr::PassArtifacts>(opts.unit_cache);
    cx.artifacts = artifacts.get();
    artifacts->enroll("parallelize", hash_pipeline_options(kFnvOffset, opts));
    mopts.artifacts = artifacts.get();
  }

  pm::PassManager manager(mopts);
  for (auto& p : build_pass_sequence(cx)) manager.add(std::move(p));

  pm::PassState st;
  st.diags = &diags;
  bool ok = manager.run(st);

  result.timings.passes = manager.records();
  result.print_dump = manager.print_dump();
  result.stopped_early = manager.stopped_early();
  // Request-level unit counters: the snapshot boundary's outcome.
  if (const pm::PassRecord* rec = result.timings.find("parallelize")) {
    result.unit_hits = static_cast<size_t>(rec->unit_hits);
    result.unit_misses = static_cast<size_t>(rec->unit_misses);
    result.unit_invalidated = static_cast<size_t>(rec->unit_invalidated);
  }
  result.timings.total_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t_start)
          .count();
  if (!ok) {
    result.error = manager.error();
    return result;
  }
  result.program = std::move(st.program);
  result.ok = true;
  return result;
}

Table2Row make_table2_row(const std::string& app,
                          const std::set<int64_t>& none_loops,
                          size_t none_lines,
                          const std::set<int64_t>& conv_loops,
                          size_t conv_lines,
                          const std::set<int64_t>& annot_loops,
                          size_t annot_lines) {
  Table2Row row;
  row.app = app;
  row.par_none = static_cast<int>(none_loops.size());
  row.par_conv = static_cast<int>(conv_loops.size());
  row.par_annot = static_cast<int>(annot_loops.size());
  row.lines_none = none_lines;
  row.lines_conv = conv_lines;
  row.lines_annot = annot_lines;
  for (int64_t id : none_loops) {
    if (!conv_loops.count(id)) ++row.loss_conv;
    if (!annot_loops.count(id)) ++row.loss_annot;
  }
  for (int64_t id : conv_loops)
    if (!none_loops.count(id)) ++row.extra_conv;
  for (int64_t id : annot_loops)
    if (!none_loops.count(id)) ++row.extra_annot;
  return row;
}

Table2Row evaluate_table2_row(const suite::BenchmarkApp& app,
                              const PipelineOptions& base) {
  PipelineOptions o = base;
  o.config = InlineConfig::None;
  PipelineResult none = run_pipeline(app, o);
  o.config = InlineConfig::Conventional;
  PipelineResult conv = run_pipeline(app, o);
  o.config = InlineConfig::Annotation;
  PipelineResult annot = run_pipeline(app, o);

  return make_table2_row(app.name, none.parallel_loops, none.code_lines,
                         conv.parallel_loops, conv.code_lines,
                         annot.parallel_loops, annot.code_lines);
}

int empirical_tune(fir::Program& prog, int threads) {
  using clock = std::chrono::steady_clock;
  auto run_ms = [&](bool parallel) {
    interp::InterpOptions o;
    o.num_threads = threads;
    o.enable_parallel = parallel;
    interp::Interpreter it(prog, o);
    auto t0 = clock::now();
    auto r = it.run();
    auto t1 = clock::now();
    if (!r.ok) return -1.0;
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // Collect mutable pointers to the parallel loops of application units.
  std::vector<fir::Stmt*> parallel_loops;
  for (auto& u : prog.units) {
    fir::walk_stmts(u->body, [&](fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Do && s.omp.parallel)
        parallel_loops.push_back(&s);
      return true;
    });
  }
  if (parallel_loops.empty()) return 0;

  double best = run_ms(true);
  if (best < 0) return 0;
  int disabled = 0;
  // Greedy: try disabling each loop; keep the change when it helps by more
  // than measurement noise.
  for (fir::Stmt* loop : parallel_loops) {
    loop->omp.parallel = false;
    double t = run_ms(true);
    if (t >= 0 && t < best * 0.97) {
      best = t;
      ++disabled;
    } else {
      loop->omp.parallel = true;
    }
  }
  return disabled;
}

}  // namespace ap::driver

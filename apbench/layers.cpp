// The layer probe of a traced run: each sampled input replayed, one call at
// a time, through the public functions of every layer, with a span around
// each call. The passes are replayed from driver::build_pass_sequence one
// public entry point at a time, and the replay must reproduce
// run_pipeline's result.
#include <sys/resource.h>

#include <algorithm>
#include <memory>

#include "apbench/bench.h"
#include "driver/passes.h"
#include "fir/parser.h"
#include "fir/unparse.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/unit_cache.h"
#include "interp/interp.h"
#include "net/binproto.h"

namespace apbench {

namespace {

namespace net = ap::net;
namespace driver = ap::driver;

// Span and metric name of each pass: <layer>.<pass>.
std::string pass_layer(std::string_view pass) {
  std::string name(pass);
  for (char& c : name)
    if (c == '-') c = '_';
  if (pass == "parse") return "fir." + name;
  if (pass == "parallelize") return "par." + name;
  if (pass == "collect-metrics") return "driver." + name;
  return "xform." + name;
}

const char* const kPasses[] = {"parse",       "conv-inline",   "annot-inline",
                               "normalize",   "parallelize",   "reverse-inline",
                               "collect-metrics"};

double cpu_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Replays one input's pass sequence; fills *result as run_pipeline would.
// Records one span per pass under `parent` and the IR size after each.
void replay_passes(const service::CompileJob& job, uint64_t request,
                   int parent, SpanLog& spans, driver::PipelineResult* result,
                   std::map<std::string, std::vector<double>>* lines_after) {
  ap::DiagnosticEngine diags;
  diags.set_stream(job.app.name);
  driver::PipelineContext cx;
  cx.app = &job.app;
  cx.opts = job.opts;
  cx.result = result;
  ap::pm::PassState st;
  st.diags = &diags;
  for (auto& pass : driver::build_pass_sequence(cx)) {
    const std::string layer = pass_layer(pass->name());
    {
      Scope s(spans, layer, request, parent);
      if (pass->kind() == ap::pm::PassKind::WholeProgram) {
        pass->run(st);
      } else {
        pass->begin(st);
        if (!st.failed && st.program) {
          auto& units = st.program->units;
          for (size_t u = 0; u < units.size(); ++u) {
            ap::DiagnosticEngine unit_diags;
            unit_diags.set_stream(diags.stream());
            pass->run_unit(*units[u], u, unit_diags);
            diags.merge(std::move(unit_diags));
          }
        }
        if (!st.failed) pass->end(st);
      }
    }
    if (st.failed) break;
    if (st.program && pass->name() != "collect-metrics")
      (*lines_after)[layer].push_back(
          static_cast<double>(ap::fir::code_size_lines(*st.program)));
  }
  result->ok = !st.failed;
  result->error = st.error;
  result->program = std::move(st.program);
}

}  // namespace

std::vector<LayerTimes> probe_layers(const std::vector<CompileInput>& sample,
                                     double seconds, uint64_t seed,
                                     SpanLog& spans, Report& rep) {
  const int sweep_pairs = std::clamp(static_cast<int>(seconds / 5), 1, 3);
  Rng rng(seed ^ 0x1a7e5ull);
  std::vector<LayerTimes> out(sample.size());
  service::ResultCache cache(256);
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp, req_bytes,
      resp_bytes, find, store, ser, deser, fingerprint, depgraph, pipeline;
  std::map<std::string, std::vector<double>> lines_after;
  double incr_warm_ms = 0, incr_cold_ms = 0;
  double dep_tests = 0, dep_unique = 0, loops = 0;
  std::vector<std::unique_ptr<ap::fir::Program>> programs;

  // Times `fn` as a span named `name` under `parent`; returns ms.
  auto timed = [&](const char* name, uint64_t request, int parent,
                   const auto& fn) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    spans.add(name, request, parent, t0, t1);
    return ms_between(t0, t1);
  };

  for (size_t i = 0; i < sample.size(); ++i) {
    service::CompileJob job = materialize(sample[i]);
    LayerTimes& lt = out[i];
    int root = spans.open("probe", i);

    driver::PipelineResult ref;
    lt.pipeline = timed("driver.pipeline", i, root, [&] {
      ref = driver::run_pipeline(job.app, job.opts);
    });
    pipeline.push_back(lt.pipeline);
    driver::PipelineResult replayed;
    {
      Scope s(spans, "driver.replay", i, root);
      replay_passes(job, i, s.id(), spans, &replayed, &lines_after);
    }
    service::CompileResult result = service::to_compile_result(ref);
    rep.check(ref.ok && replayed.ok &&
                  digest_of(service::to_compile_result(replayed)) ==
                      digest_of(result),
              "pass replay differs from run_pipeline on " + job.app.name);
    dep_tests += static_cast<double>(result.dep_tests);
    dep_unique += static_cast<double>(result.dep_tests_unique);
    loops += static_cast<double>(result.parallel_loops.size());

    // Codec: the request and its reply, one hop.
    net::Request req = compile_request(sample[i]);
    net::Response resp;
    resp.id = 1;
    resp.has_result = true;
    resp.result = result;
    std::string req_frame, resp_frame;
    net::Request req_back;
    net::Response resp_back;
    std::string err;
    enc_req.push_back(1000 * timed("net.encode_req", i, root, [&] {
      net::encode_request_binary(req, &req_frame);
    }));
    bool decoded = true;
    dec_req.push_back(1000 * timed("net.decode_req", i, root, [&] {
      decoded &= net::decode_request_binary(req_frame, &req_back, &err);
    }));
    enc_resp.push_back(1000 * timed("net.encode_resp", i, root, [&] {
      net::encode_response_binary(resp, &resp_frame);
    }));
    dec_resp.push_back(1000 * timed("net.decode_resp", i, root, [&] {
      decoded &= net::decode_response_binary(resp_frame, &resp_back, &err);
    }));
    rep.check(decoded, "codec round trip failed: " + err);
    req_bytes.push_back(static_cast<double>(req_frame.size()));
    resp_bytes.push_back(static_cast<double>(resp_frame.size()));
    lt.codec = (enc_req.back() + dec_req.back() + enc_resp.back() +
                dec_resp.back()) / 1000;

    // Result cache: store then look up, at worker capacity.
    uint64_t key = service::cache_key(req.source, req.annotations, req.options);
    std::string payload;
    lt.serialize = timed("service.serialize", i, root, [&] {
      payload = service::serialize_result(result);
    });
    bool restored = false;
    deser.push_back(1000 * timed("service.deserialize", i, root, [&] {
      restored = service::deserialize_result(payload).has_value();
    }));
    rep.check(restored, "result deserialization failed");
    lt.store =
        timed("service.store", i, root, [&] { cache.store(key, result); });
    bool hit = false;
    lt.find = timed("service.find", i, root, [&] {
      hit = cache.find(key).has_value();
    });
    rep.check(hit, "result cache lost a stored entry");
    ser.push_back(1000 * lt.serialize);
    store.push_back(1000 * lt.store);
    find.push_back(1000 * lt.find);

    // Unit cache: front-end fingerprints, the dependence graph, and a
    // one-unit edit compiled against a warmed cache vs. with none.
    fingerprint.push_back(1000 * timed("incr.fingerprint", i, root, [&] {
      ap::incr::fingerprint_units(job.app.source, job.app.annotations);
    }));
    ap::DiagnosticEngine diags;
    auto parsed = ap::fir::parse_program(job.app.source, diags);
    if (parsed)
      depgraph.push_back(1000 * timed("incr.depgraph", i, root, [&] {
        ap::incr::build_dep_graph(*parsed);
      }));
    const CompileInput& in = sample[i];
    const service::CompileJob& pristine = matrix()[static_cast<size_t>(in.job)];
    service::CompileJob edited =
        in.unit.empty() ? materialize(random_edit(
                              rng, in.job, 2'000'000 + static_cast<int>(i)))
                        : job;
    ap::incr::UnitCache units;
    driver::PipelineOptions warm = pristine.opts;
    warm.unit_cache = &units;
    (void)driver::run_pipeline(pristine.app, warm);
    lt.pipeline_incr = timed("incr.edit_warm", i, root, [&] {
      (void)driver::run_pipeline(edited.app, warm);
    });
    incr_warm_ms += lt.pipeline_incr;
    incr_cold_ms += timed("incr.edit_cold", i, root, [&] {
      (void)driver::run_pipeline(edited.app, edited.opts);
    });

    spans.close(root);
    if (ref.program) programs.push_back(std::move(ref.program));
  }

  rep.set_sample("net.encode_req_us", mean(enc_req), "us", enc_req);
  rep.set_sample("net.decode_req_us", mean(dec_req), "us", dec_req);
  rep.set_sample("net.encode_resp_us", mean(enc_resp), "us", enc_resp);
  rep.set_sample("net.decode_resp_us", mean(dec_resp), "us", dec_resp);
  rep.set_sample("net.req_bytes", mean(req_bytes), "bytes", req_bytes);
  rep.set_sample("net.resp_bytes", mean(resp_bytes), "bytes", resp_bytes);
  rep.set_sample("service.find_us", mean(find), "us", find);
  rep.set_sample("service.store_us", mean(store), "us", store);
  rep.set_sample("service.serialize_us", mean(ser), "us", ser);
  rep.set_sample("service.deserialize_us", mean(deser), "us", deser);
  rep.set_sample("incr.fingerprint_us", mean(fingerprint), "us", fingerprint);
  rep.set_sample("incr.depgraph_us", mean(depgraph), "us", depgraph);
  rep.set("incr.edit_over_cold", ratio(incr_warm_ms, incr_cold_ms), "ratio",
          sample.size());
  rep.set_sample("driver.pipeline_ms", mean(pipeline), "ms", pipeline);
  auto self = spans.self_times();
  for (const char* pass : kPasses) {
    const std::string layer = pass_layer(pass);
    rep.set(layer + "_ms", self[layer].mean(), "ms", self[layer].count);
    if (std::string_view(pass) != "collect-metrics") {
      std::string after = layer.substr(layer.find('.') + 1);
      rep.set_sample("fir.lines_after_" + after, mean(lines_after[layer]),
                     "lines", lines_after[layer]);
    }
  }
  double n = static_cast<double>(sample.size());
  rep.set("par.dep_tests", ratio(dep_tests, n), "count", sample.size());
  rep.set("par.dep_tests_unique", ratio(dep_unique, n), "count", sample.size());
  rep.set("par.memo_frac", 1 - ratio(dep_unique, dep_tests), "frac");
  rep.set("par.parallel_loops", loops, "count", sample.size());

  // Interpreter: one serial run per program for the per-run costs, then
  // paired serial/parallel sweeps over the whole sample.
  std::vector<double> bc_ms, vm_ms;
  double instructions = 0, vm_total_ms = 0;
  std::vector<std::string> outputs;
  for (size_t p = 0; p < programs.size(); ++p) {
    ap::interp::InterpOptions o;
    o.enable_parallel = false;
    ap::interp::Interpreter it(*programs[p], o);
    ap::interp::RunResult r;
    vm_ms.push_back(timed("interp.vm_serial", p, -1, [&] { r = it.run(); }));
    rep.check(r.ok, "interpreter run failed");
    bc_ms.push_back(r.bytecode_compile_ms);
    instructions += static_cast<double>(r.instructions_executed);
    vm_total_ms += vm_ms.back();
    outputs.push_back(r.output);
  }
  std::vector<double> serial_sweeps, par_sweeps, speedups;
  double par_sys = 0, par_cpu = 0, stmts = 0, stmts_par = 0;
  for (int pair = 0; pair < sweep_pairs; ++pair) {
    for (bool parallel : {false, true}) {
      rusage ru0{}, ru1{};
      getrusage(RUSAGE_SELF, &ru0);
      auto t0 = Clock::now();
      for (size_t p = 0; p < programs.size(); ++p) {
        ap::interp::InterpOptions o;
        o.num_threads = parallel ? bench_lanes() : 1;
        o.enable_parallel = parallel;
        ap::interp::Interpreter it(*programs[p], o);
        ap::interp::RunResult r = it.run();
        rep.check(r.ok && r.output == outputs[p],
                  "parallel run output differs from serial");
        if (parallel) {
          stmts += static_cast<double>(r.statements_executed);
          stmts_par += static_cast<double>(r.statements_in_parallel);
        }
      }
      auto t1 = Clock::now();
      getrusage(RUSAGE_SELF, &ru1);
      spans.add(parallel ? "interp.sweep_par" : "interp.sweep_serial", pair,
                -1, t0, t1);
      (parallel ? par_sweeps : serial_sweeps).push_back(ms_between(t0, t1));
      if (parallel) {
        double sys = cpu_s(ru1.ru_stime) - cpu_s(ru0.ru_stime);
        par_sys += sys;
        par_cpu += sys + cpu_s(ru1.ru_utime) - cpu_s(ru0.ru_utime);
      }
    }
    speedups.push_back(ratio(serial_sweeps.back(), par_sweeps.back()));
  }
  rep.set_sample("interp.bc_compile_ms", mean(bc_ms), "ms", bc_ms);
  rep.set_sample("interp.vm_serial_ms", mean(vm_ms), "ms", vm_ms);
  rep.set("interp.instructions", instructions, "count", programs.size());
  rep.set("interp.ns_per_instr", ratio(vm_total_ms * 1e6, instructions), "ns");
  rep.set_sample("interp.run_serial_ms", median(serial_sweeps), "ms",
                 serial_sweeps);
  rep.set_sample("interp.run_par_ms", median(par_sweeps), "ms", par_sweeps);
  rep.set_sample("interp.par_speedup", median(speedups), "ratio", speedups);
  rep.set("interp.par_sys_frac", ratio(par_sys, par_cpu), "frac");
  rep.set("interp.par_coverage_pct", 100 * ratio(stmts_par, stmts), "%");
  return out;
}

}  // namespace apbench

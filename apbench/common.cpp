#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "apbench/bench.h"
#include "incr/fingerprint.h"
#include "support/fnv.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace apbench {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

const std::vector<service::CompileJob>& matrix() {
  static const std::vector<service::CompileJob> jobs = service::suite_matrix();
  return jobs;
}

const std::vector<std::string>& unit_names(int job) {
  static const std::vector<std::vector<std::string>> names = [] {
    std::vector<std::vector<std::string>> out;
    for (const auto& j : matrix())
      out.push_back(ap::incr::source_unit_names(j.app.source));
    return out;
  }();
  return names[static_cast<size_t>(job)];
}

CompileInput random_edit(Rng& rng, int job, int salt) {
  const auto& units = unit_names(job);
  return {job, units[rng.below(units.size())], salt};
}

service::CompileJob materialize(const CompileInput& in) {
  service::CompileJob job = matrix()[static_cast<size_t>(in.job)];
  if (!in.unit.empty())
    job.app.source = ap::incr::mutate_unit(job.app.source, in.unit, in.salt);
  return job;
}

ap::net::Request compile_request(const CompileInput& in) {
  service::CompileJob job = materialize(in);
  ap::net::Request req;
  req.type = ap::net::RequestType::Compile;
  req.name = job.app.name;
  req.source = std::move(job.app.source);
  req.annotations = job.app.annotations;
  req.options = job.opts;
  return req;
}

std::vector<CompileInput> probe_sample(bool edited, uint64_t seed) {
  Rng rng(seed ^ 0x9e0be5ull);
  std::vector<CompileInput> out;
  for (int j = 0; j < static_cast<int>(matrix().size()); ++j)
    out.push_back(edited ? random_edit(rng, j, 1'000'000 + j)
                         : CompileInput{j, "", 0});
  return out;
}

uint64_t fold_input(uint64_t h, const CompileInput& in) {
  h = ap::fnv_u64(h, static_cast<uint64_t>(in.job));
  h = ap::fnv1a(h, in.unit);
  return ap::fnv_u64(h, static_cast<uint64_t>(in.salt));
}

OutputDigest digest_of(const service::CompileResult& r) {
  OutputDigest d;
  d.text = ap::fnv1a(ap::kFnvOffset, r.program_text);
  d.loops = ap::kFnvOffset;
  for (int64_t id : r.parallel_loops)
    d.loops = ap::fnv_u64(d.loops, static_cast<uint64_t>(id));
  d.lines = r.code_lines;
  return d;
}

std::vector<OutputDigest> reference_outputs(
    const std::vector<CompileInput>& inputs, int lanes) {
  std::vector<OutputDigest> out(inputs.size());
  ap::ThreadPool pool(std::max(1, lanes));
  pool.for_each_index(static_cast<int64_t>(inputs.size()),
                      [&](int64_t i, int) {
                        service::CompileJob job =
                            materialize(inputs[static_cast<size_t>(i)]);
                        auto r = ap::driver::run_pipeline(job.app, job.opts);
                        if (r.ok)
                          out[static_cast<size_t>(i)] =
                              digest_of(service::to_compile_result(r));
                      });
  return out;
}

int bench_lanes() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& v, double q,
                         size_t windows) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(v.size(), 1));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto lo = v.begin() + static_cast<ptrdiff_t>(v.size() * w / windows);
    auto hi = v.begin() + static_cast<ptrdiff_t>(v.size() * (w + 1) / windows);
    per_window.push_back(quantile({lo, hi}, q));
  }
  return median(std::move(per_window));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, size_t n) {
  if (!std::isfinite(value)) {
    problems.push_back("metric " + name + " is not finite");
    value = 0;
  }
  metrics[name] = Metric{value, unit, n, value, value};
}

void Report::set_sample(const std::string& name, double value,
                        const std::string& unit,
                        const std::vector<double>& sample) {
  set(name, value, unit, sample.size());
  Metric& m = metrics[name];
  m.p50 = quantile(sample, 0.5);
  m.p99 = quantile(sample, 0.99);
}

int64_t SpanLog::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int SpanLog::open(std::string name, uint64_t request, int parent) {
  spans_.push_back({std::move(name), request, parent, ns(Clock::now()), 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int span) {
  spans_[static_cast<size_t>(span)].end_ns = ns(Clock::now());
}

int SpanLog::add(std::string name, uint64_t request, int parent,
                 Clock::time_point start, Clock::time_point end) {
  spans_.push_back({std::move(name), request, parent, ns(start), ns(end)});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, SpanLog::Sum> SpanLog::self_times() const {
  // Children of one span are recorded sequentially and never overlap, so
  // the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, Sum> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Sum& sum = out[s.name];
    int64_t self = std::max<int64_t>(0, s.end_ns - s.start_ns - child_ns[i]);
    sum.ms += static_cast<double>(self) / 1e6;
    ++sum.count;
  }
  return out;
}

void SpanLog::keep_tree(std::string tree_json) {
  trees_.push_back(std::move(tree_json));
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"spans\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, ap::json::escape(s.name).c_str(),
                 static_cast<unsigned long long>(s.request), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("],\n\"fleet_trees\": [\n", f);
  for (size_t i = 0; i < trees_.size(); ++i)
    std::fprintf(f, "%s%s\n", trees_[i].c_str(),
                 i + 1 < trees_.size() ? "," : "");
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace apbench

// apbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload and prints one line per metric ("workload metric value
// unit"), then, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a traced run. With --out, the metrics are also written as records
// of the shared schema to DIR/<workload>.s<seed>.t<trace>.json, and a
// traced run's spans to DIR/trace_<workload>.json.
#include <sys/resource.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apbench/bench.h"
#include "support/json.h"

#ifndef APBENCH_GIT_SHA
#define APBENCH_GIT_SHA "unknown"
#endif
#ifndef APBENCH_BUILD_TYPE
#define APBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace apbench;
namespace json = ap::json;

int usage(const char* why) {
  std::fprintf(stderr,
               "apbench: %s\nusage: apbench --workload "
               "fleet_cold|fleet_warm|edit_loop|fig20_run --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 64;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return errno == 0 && end != text && *end == '\0';
}

std::string layer_of(const std::string& metric) {
  size_t dot = metric.find('.');
  return dot == std::string::npos ? "e2e" : metric.substr(0, dot);
}

bool write_records(const std::string& path, const Report& rep) {
  json::Value records = json::Value::array();
  for (const auto& [name, m] : rep.metrics) {
    json::Value r = json::Value::object();
    r.set("bench", "apbench")
        .set("workload", rep.workload)
        .set("seed", rep.seed)
        .set("trace", rep.trace)
        .set("layer", layer_of(name))
        .set("metric", name)
        .set("unit", m.unit)
        .set("value", m.value)
        .set("n", static_cast<uint64_t>(m.n))
        .set("p50", m.p50)
        .set("p99", m.p99)
        .set("cores", static_cast<int64_t>(bench_lanes()))
        .set("build_type", APBENCH_BUILD_TYPE)
        .set("git_sha", APBENCH_GIT_SHA);
    records.push(std::move(r));
  }
  json::Value doc = json::Value::object();
  doc.set("correct", rep.correct())
      .set("attempted", rep.attempted)
      .set("failed", rep.failed)
      .set("records", std::move(records));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string text = doc.dump(1);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double num = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, &num) || num < 0) return usage("bad --seed");
      cfg.seed = static_cast<uint64_t>(num);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &num) || num <= 0 || num > 600)
        return usage("bad --seconds");
      cfg.seconds = num;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      cfg.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  Report rep;
  rep.workload = cfg.workload;
  rep.seed = cfg.seed;
  rep.trace = cfg.trace;
  SpanLog spans;
  if (cfg.workload == "fig20_run")
    run_fig20(cfg, rep, spans);
  else if (!run_fleet(cfg, rep, spans))
    return usage("unknown workload");

  for (const auto& p : rep.problems)
    std::fprintf(stderr, "apbench: %s: %s\n", cfg.workload.c_str(), p.c_str());
  if (rep.metrics.empty()) {
    std::fprintf(stderr, "apbench: %s: no measurement\n", cfg.workload.c_str());
    return 1;
  }
  if (!cfg.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }

  json::Value metrics = json::Value::object();
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%s %s %.9g %s\n", cfg.workload.c_str(), name.c_str(),
                m.value, m.unit.c_str());
    json::Value v = json::Value::object();
    v.set("value", m.value).set("unit", m.unit);
    metrics.set(name, std::move(v));
  }
  std::printf("%s stream_digest %016llx -\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(rep.digest));

  if (!out_dir.empty()) {
    ::mkdir(out_dir.c_str(), 0755);
    std::string base = out_dir + "/" + cfg.workload;
    std::string rec = base + ".s" + std::to_string(cfg.seed) + ".t" +
                      (cfg.trace ? "1" : "0") + ".json";
    if (!write_records(rec, rep))
      std::fprintf(stderr, "apbench: cannot write %s\n", rec.c_str());
    std::string trace_path = out_dir + "/trace_" + cfg.workload + ".json";
    if (cfg.trace && !spans.write_json(trace_path))
      std::fprintf(stderr, "apbench: cannot write %s\n", trace_path.c_str());
  }

  json::Value result = json::Value::object();
  result.set("correct", rep.correct())
      .set("attempted", rep.attempted)
      .set("failed", rep.failed)
      .set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

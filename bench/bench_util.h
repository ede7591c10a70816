// Shared helpers for the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper: it prints the rows/series
// the paper reports (the primary output) and, where meaningful, registers
// google-benchmark timings for the machinery involved.
#pragma once

#include <cstdio>
#include <string>

#include "driver/pipeline.h"
#include "suite/suite.h"

namespace ap::bench {

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

// Run one configuration of one app, asserting success.
inline driver::PipelineResult must_run(const suite::BenchmarkApp& app,
                                       driver::InlineConfig cfg,
                                       driver::PipelineOptions base = {}) {
  base.config = cfg;
  auto r = driver::run_pipeline(app, base);
  if (!r.ok) {
    std::fprintf(stderr, "FATAL: pipeline failed for %s under %s:\n%s\n",
                 app.name.c_str(), driver::config_name(cfg), r.error.c_str());
    std::exit(1);
  }
  return r;
}

// Print the per-loop verdicts of a pipeline run, optionally filtered to one
// unit.
inline void print_verdicts(const driver::PipelineResult& r,
                           const std::string& unit_filter = "") {
  for (const auto& v : r.par.loops) {
    if (!unit_filter.empty() && v.unit != unit_filter) continue;
    std::printf("  %-8s DO %-10s %s %s\n", v.unit.c_str(), v.do_var.c_str(),
                v.parallel ? "PARALLEL" : "serial  ", v.reason.c_str());
  }
}

}  // namespace ap::bench

// The driver's pass catalogue: each pipeline stage as a pm::Pass.
//
// Pass names (stable identifiers, used by --stop-after/--print-after, the
// per-pass timing records, telemetry and the wire protocol):
//
//   parse            — source + annotation-registry parsing (whole-program)
//   conv-inline      — conventional inlining        (Conventional config)
//   annot-inline     — annotation-based inlining    (Annotation config)
//   normalize        — forward propagation + induction substitution (per-unit)
//   parallelize      — loop analysis + OMP marking  (per-unit)
//   reverse-inline   — reverse inlining             (Annotation config)
//   collect-metrics  — Table II aggregates (parallel origins, code size)
//
// build_pass_sequence assembles the declarative sequence for a config:
//   None:          parse → normalize → parallelize → collect-metrics
//   Conventional:  parse → conv-inline → normalize → parallelize
//                        → collect-metrics
//   Annotation:    parse → annot-inline → normalize → parallelize
//                        → reverse-inline → collect-metrics
//
// The per-unit passes (normalize, parallelize) fan out over ProgramUnits on
// the pass manager's pool; results and diagnostics merge in unit-index
// order, so output is identical at any lane count.
#pragma once

#include <memory>
#include <vector>

#include "driver/pipeline.h"
#include "pm/pass.h"

namespace ap::incr {
class PassArtifacts;
}

namespace ap::driver {

// Mutable driver state shared by the passes beyond the program itself:
// the input app, the options, the annotation registry (populated by parse,
// read by annot-inline and reverse-inline) and the result being built.
// Must outlive the PassManager run.
struct PipelineContext {
  const suite::BenchmarkApp* app = nullptr;
  PipelineOptions opts;
  annot::AnnotationRegistry registry;
  PipelineResult* result = nullptr;
  // The request's artifact store when a unit cache is attached: parse
  // builds its incremental plan from the fresh program.
  incr::PassArtifacts* artifacts = nullptr;
};

// The pass sequence for cx.opts.config, in execution order.
std::vector<std::unique_ptr<pm::Pass>> build_pass_sequence(PipelineContext& cx);

}  // namespace ap::driver

#include "driver/passes.h"

#include "fir/parser.h"
#include "fir/unparse.h"
#include "incr/artifacts.h"
#include "incr/plan.h"
#include "incr/unit_cache.h"
#include "par/parallelizer.h"
#include "sema/symbols.h"
#include "xform/normalize.h"

namespace ap::driver {

namespace {

std::set<int64_t> collect_parallel_origins(const fir::Program& prog) {
  std::set<int64_t> out;
  for (const auto& u : prog.units) {
    if (u->external_library) continue;
    fir::walk_stmts(u->body, [&](const fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Do && s.omp.parallel && s.origin_id >= 0)
        out.insert(s.origin_id);
      return true;
    });
  }
  return out;
}

bool has_tagged_region(const fir::Program& prog) {
  bool found = false;
  for (const auto& u : prog.units) {
    fir::walk_stmts(u->body, [&](const fir::Stmt& s) {
      if (s.kind == fir::StmtKind::TaggedRegion) found = true;
      return !found;
    });
    if (found) break;
  }
  return found;
}

class ParsePass : public pm::Pass {
 public:
  explicit ParsePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "parse"; }

  void run(pm::PassState& st) override {
    st.program = fir::parse_program(cx_.app->source, *st.diags);
    if (!st.program) {
      st.fail("parse failed:\n" + st.diags->render_all());
      return;
    }
    if (cx_.artifacts)
      cx_.artifacts->set_plan(incr::make_plan(
          *st.program, cx_.app->source, cx_.app->annotations,
          cx_.opts.bidirectional_common ? incr::DepMode::Bidirectional
                                        : incr::DepMode::Directed));
    if (!cx_.app->annotations.empty()) {
      DiagnosticEngine adiags;
      adiags.set_stream(cx_.app->name + ":annotations");
      if (!cx_.registry.add(cx_.app->annotations, adiags))
        st.fail("annotation parse failed:\n" + adiags.render_all());
    }
  }

 private:
  PipelineContext& cx_;
};

class ConvInlinePass : public pm::Pass {
 public:
  explicit ConvInlinePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "conv-inline"; }

  void run(pm::PassState& st) override {
    cx_.result->conv_report =
        xform::inline_conventional(*st.program, cx_.opts.conv, *st.diags);
  }

  // Inliner copies legitimately duplicate origin_ids (Table II counts each
  // original loop once across all of its inlined copies).
  void adjust_verify(pm::VerifyOptions& v) override {
    v.unique_origin_ids = false;
  }

 private:
  PipelineContext& cx_;
};

class AnnotInlinePass : public pm::Pass {
 public:
  explicit AnnotInlinePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "annot-inline"; }

  void run(pm::PassState& st) override {
    cx_.result->annot_report = xform::inline_annotations(
        *st.program, cx_.registry, cx_.opts.annot, *st.diags);
  }

  void adjust_verify(pm::VerifyOptions& v) override {
    v.unique_origin_ids = false;
    // Opens the annotation window: tagged regions and unknown()/unique()
    // are legal from here until reverse-inline closes it.
    v.allow_tagged_regions = true;
    v.allow_annotation_ops = true;
  }

  // Every inlined region must name a callee that exists in the program —
  // reverse inlining re-emits a CALL to it.
  std::string verify_after(const fir::Program& prog) override {
    std::string err;
    for (const auto& u : prog.units) {
      fir::walk_stmts(u->body, [&](const fir::Stmt& s) {
        if (err.empty() && s.kind == fir::StmtKind::TaggedRegion &&
            !prog.find_unit(s.name))
          err = "unit " + u->name + ": tagged region names undefined callee " +
                s.name;
        return err.empty();
      });
    }
    return err;
  }

 private:
  PipelineContext& cx_;
};

class NormalizePass : public pm::Pass {
 public:
  explicit NormalizePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "normalize"; }
  pm::PassKind kind() const override { return pm::PassKind::PerUnit; }

  void run_unit(fir::ProgramUnit& unit, size_t, DiagnosticEngine&) override {
    if (cx_.opts.par.normalize) xform::normalize_unit(unit);
  }

 private:
  PipelineContext& cx_;
};

class ParallelizePass : public pm::Pass {
 public:
  explicit ParallelizePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "parallelize"; }
  pm::PassKind kind() const override { return pm::PassKind::PerUnit; }

  void begin(pm::PassState& st) override {
    // One immutable program-wide context shared by every lane. Sema
    // diagnostics go to scratch: the parallelizer's contract is to analyze
    // best-effort, not to re-report frontend problems.
    DiagnosticEngine scratch;
    sema_ = std::make_unique<sema::SemaContext>(*st.program, scratch);
    slots_.assign(st.program->units.size(), par::ParallelizeResult{});
  }

  void run_unit(fir::ProgramUnit& unit, size_t unit_index,
                DiagnosticEngine&) override {
    slots_[unit_index] = par::parallelize_unit(unit, *sema_, cx_.opts.par);
  }

  // Artifact hooks: the payload is the unit's OMP marks plus its
  // ParallelizeResult ("APUNIT", incr/unit_cache.h). A restore re-applies
  // the marks onto the freshly normalized unit (remapping verdict
  // origin_ids onto the current parse's numbering) and fills the unit's
  // result slot, so a warm compile skips dependence testing entirely.
  bool snapshotable() const override { return true; }

  std::string snapshot_unit_artifact(const fir::ProgramUnit& unit,
                                     size_t unit_index) override {
    return incr::serialize_snapshot(
        incr::snapshot_unit(unit, slots_[unit_index]));
  }

  bool restore_unit_artifact(fir::ProgramUnit& unit, size_t unit_index,
                             const std::string& payload) override {
    auto snap = incr::deserialize_snapshot(payload);
    if (!snap || !incr::apply_snapshot(unit, *snap)) return false;
    slots_[unit_index] = std::move(snap->par);
    return true;
  }

  void end(pm::PassState&) override {
    // Unit-index order: verdict order matches the sequential pipeline no
    // matter which lane finished first.
    for (auto& slot : slots_)
      par::merge_results(cx_.result->par, std::move(slot));
    slots_.clear();
    sema_.reset();
  }

 private:
  PipelineContext& cx_;
  std::unique_ptr<sema::SemaContext> sema_;
  std::vector<par::ParallelizeResult> slots_;  // lanes write disjoint slots
};

class ReverseInlinePass : public pm::Pass {
 public:
  explicit ReverseInlinePass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "reverse-inline"; }

  void run(pm::PassState& st) override {
    cx_.result->reverse_report = xform::reverse_inline(
        *st.program, cx_.registry, *st.diags, cx_.opts.reverse);
    regions_remain_ = has_tagged_region(*st.program);
  }

  void adjust_verify(pm::VerifyOptions& v) override {
    // Close the annotation window — unless reversal left regions behind
    // (possible when hint fallback is disabled for ablation runs).
    v.allow_tagged_regions = regions_remain_;
    v.allow_annotation_ops = regions_remain_;
  }

  // When every region was reversed or replaced by its recorded call, none
  // may survive in the output.
  std::string verify_after(const fir::Program& prog) override {
    if (!regions_remain_ && has_tagged_region(prog))
      return "tagged region survived reverse inlining";
    return {};
  }

 private:
  PipelineContext& cx_;
  bool regions_remain_ = false;
};

class CollectMetricsPass : public pm::Pass {
 public:
  explicit CollectMetricsPass(PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "collect-metrics"; }

  void run(pm::PassState& st) override {
    cx_.result->parallel_loops = collect_parallel_origins(*st.program);
    cx_.result->code_lines = fir::code_size_lines(*st.program);
  }

 private:
  PipelineContext& cx_;
};

}  // namespace

std::vector<std::unique_ptr<pm::Pass>> build_pass_sequence(
    PipelineContext& cx) {
  std::vector<std::unique_ptr<pm::Pass>> seq;
  seq.push_back(std::make_unique<ParsePass>(cx));
  if (cx.opts.config == InlineConfig::Conventional)
    seq.push_back(std::make_unique<ConvInlinePass>(cx));
  if (cx.opts.config == InlineConfig::Annotation)
    seq.push_back(std::make_unique<AnnotInlinePass>(cx));
  seq.push_back(std::make_unique<NormalizePass>(cx));
  seq.push_back(std::make_unique<ParallelizePass>(cx));
  if (cx.opts.config == InlineConfig::Annotation)
    seq.push_back(std::make_unique<ReverseInlinePass>(cx));
  seq.push_back(std::make_unique<CollectMetricsPass>(cx));
  return seq;
}

}  // namespace ap::driver

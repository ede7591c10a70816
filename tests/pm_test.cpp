// Pass manager and AST verifier tests.
//
// Covers the structural verifier (seeded malformed ASTs must be rejected),
// PassManager mechanics (records, stop-after, print-after, verify hooks,
// deterministic per-unit diagnostic merge), DiagnosticEngine::merge, and
// the unit-parallel golden property: the full pipeline produces
// bit-identical output at every lane count for every suite app.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "driver/pipeline.h"
#include "fir/unparse.h"
#include "pm/pass.h"
#include "pm/verify.h"
#include "suite/suite.h"
#include "support/thread_pool.h"
#include "tests/test_util.h"

namespace ap {
namespace {

using test::parse_ok;

const char* kTwoLoopProgram = R"(
      PROGRAM T
      COMMON /C/ A(10), B(10)
      DO 10 I = 1, 10
      A(I) = 1.0
   10 CONTINUE
      DO 20 J = 1, 10
      B(J) = 2.0
   20 CONTINUE
      CALL S(A)
      END
      SUBROUTINE S(X)
      DIMENSION X(10)
      X(1) = 0.0
      END
)";

fir::Stmt* first_loop(fir::Program& prog) {
  fir::Stmt* found = nullptr;
  for (auto& u : prog.units)
    fir::walk_stmts(u->body, [&](fir::Stmt& s) {
      if (!found && s.kind == fir::StmtKind::Do) found = &s;
      return !found;
    });
  return found;
}

// --- Verifier: clean input -------------------------------------------------

TEST(Verifier, AcceptsWellFormedProgram) {
  auto prog = parse_ok(kTwoLoopProgram);
  EXPECT_EQ(pm::verify_program(*prog), "");
}

TEST(Verifier, AcceptsEverySuiteAppAfterParse) {
  for (const auto& app : suite::perfect_suite()) {
    DiagnosticEngine diags;
    auto prog = fir::parse_program(app.source, diags);
    ASSERT_NE(prog, nullptr) << app.name;
    EXPECT_EQ(pm::verify_program(*prog), "") << app.name;
  }
}

// --- Verifier: seeded malformed ASTs ---------------------------------------

TEST(Verifier, CatchesDuplicateOriginId) {
  auto prog = parse_ok(kTwoLoopProgram);
  std::vector<fir::Stmt*> loops;
  fir::walk_stmts(prog->main()->body, [&](fir::Stmt& s) {
    if (s.kind == fir::StmtKind::Do) loops.push_back(&s);
    return true;
  });
  ASSERT_EQ(loops.size(), 2u);
  loops[1]->origin_id = loops[0]->origin_id;
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("duplicate origin_id"), std::string::npos) << err;

  // Inlining passes legalize duplicates.
  pm::VerifyOptions relaxed;
  relaxed.unique_origin_ids = false;
  EXPECT_EQ(pm::verify_program(*prog, relaxed), "");
}

TEST(Verifier, CatchesOmpMarkOnNonDoStatement) {
  auto prog = parse_ok(kTwoLoopProgram);
  fir::Stmt* loop = first_loop(*prog);
  ASSERT_NE(loop, nullptr);
  ASSERT_FALSE(loop->body.empty());
  loop->body[0]->omp.parallel = true;  // an Assign, not a DO
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("OMP metadata on non-DO"), std::string::npos) << err;
}

TEST(Verifier, CatchesOriginIdOnNonDoStatement) {
  auto prog = parse_ok(kTwoLoopProgram);
  fir::Stmt* loop = first_loop(*prog);
  ASSERT_NE(loop, nullptr);
  loop->body[0]->origin_id = 99;
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("origin_id 99 on non-DO"), std::string::npos) << err;
}

TEST(Verifier, CatchesDanglingCallTarget) {
  auto prog = parse_ok(kTwoLoopProgram);
  fir::walk_stmts(prog->main()->body, [&](fir::Stmt& s) {
    if (s.kind == fir::StmtKind::Call) s.name = "GONE";
    return true;
  });
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("CALL to undefined unit GONE"), std::string::npos) << err;
}

TEST(Verifier, CatchesUnnumberedLoopOutsideTaggedRegion) {
  auto prog = parse_ok(kTwoLoopProgram);
  first_loop(*prog)->origin_id = -1;
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("unnumbered DO loop"), std::string::npos) << err;
}

TEST(Verifier, CatchesSubscriptRankMismatch) {
  auto prog = parse_ok(kTwoLoopProgram);
  fir::walk_stmts(prog->main()->body, [&](fir::Stmt& s) {
    fir::walk_exprs(s, [&](fir::Expr& e) {
      if (e.kind == fir::ExprKind::ArrayRef && e.name == "A")
        e.args.push_back(fir::make_int(1));
    });
    return true;
  });
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("declared rank"), std::string::npos) << err;
}

TEST(Verifier, TaggedRegionOnlyLegalInsideAnnotationWindow) {
  auto prog = parse_ok(kTwoLoopProgram);
  auto& body = prog->main()->body;
  body.push_back(fir::make_tagged_region("S", 0, {}, {}));
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("tagged region outside"), std::string::npos) << err;

  pm::VerifyOptions window;
  window.allow_tagged_regions = true;
  window.allow_annotation_ops = true;
  EXPECT_EQ(pm::verify_program(*prog, window), "");
}

TEST(Verifier, CatchesTwoCommonMembership) {
  auto prog = parse_ok(kTwoLoopProgram);
  prog->main()->commons.push_back({"D", {"A"}});  // A already lives in /C/
  std::string err = pm::verify_program(*prog);
  EXPECT_NE(err.find("member of two COMMON"), std::string::npos) << err;
}

// --- PassManager mechanics -------------------------------------------------

// Minimal whole-program pass for mechanics tests.
class NamedPass : public pm::Pass {
 public:
  NamedPass(std::string name, std::vector<std::string>* trace)
      : name_(std::move(name)), trace_(trace) {}
  std::string_view name() const override { return name_; }
  void run(pm::PassState&) override { trace_->push_back(name_); }

 private:
  std::string name_;
  std::vector<std::string>* trace_;
};

// Per-unit pass that reports one diagnostic per unit, with a configurable
// artificial delay so lane completion order scrambles under a real pool.
class PerUnitNoisyPass : public pm::Pass {
 public:
  std::string_view name() const override { return "noisy"; }
  pm::PassKind kind() const override { return pm::PassKind::PerUnit; }
  void run_unit(fir::ProgramUnit& unit, size_t index,
                DiagnosticEngine& diags) override {
    // Later units finish first.
    std::this_thread::sleep_for(std::chrono::microseconds(500 * (3 - index)));
    diags.note(unit.loc, "visited " + unit.name);
  }
};

std::unique_ptr<fir::Program> four_unit_program() {
  return parse_ok(R"(
      PROGRAM T
      X = 1.0
      END
      SUBROUTINE S1()
      X = 1.0
      END
      SUBROUTINE S2()
      X = 1.0
      END
      SUBROUTINE S3()
      X = 1.0
      END
)");
}

TEST(PassManager, RunsPassesInOrderAndRecordsThem) {
  std::vector<std::string> trace;
  pm::PassManager mgr({});
  mgr.add(std::make_unique<NamedPass>("a", &trace));
  mgr.add(std::make_unique<NamedPass>("b", &trace));
  pm::PassState st;
  st.program = four_unit_program();
  ASSERT_TRUE(mgr.run(st));
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(mgr.records().size(), 2u);
  EXPECT_EQ(mgr.records()[0].name, "a");
  EXPECT_EQ(mgr.records()[1].name, "b");
  EXPECT_FALSE(mgr.stopped_early());
}

TEST(PassManager, StopAfterCutsSequenceAndFlagsIt) {
  std::vector<std::string> trace;
  pm::PassManagerOptions opts;
  opts.stop_after = "a";
  pm::PassManager mgr(opts);
  mgr.add(std::make_unique<NamedPass>("a", &trace));
  mgr.add(std::make_unique<NamedPass>("b", &trace));
  pm::PassState st;
  st.program = four_unit_program();
  ASSERT_TRUE(mgr.run(st));
  EXPECT_EQ(trace, (std::vector<std::string>{"a"}));
  EXPECT_TRUE(mgr.stopped_early());
  ASSERT_EQ(mgr.records().size(), 1u);
}

TEST(PassManager, StopAfterLastPassIsNotEarly) {
  std::vector<std::string> trace;
  pm::PassManagerOptions opts;
  opts.stop_after = "b";
  pm::PassManager mgr(opts);
  mgr.add(std::make_unique<NamedPass>("a", &trace));
  mgr.add(std::make_unique<NamedPass>("b", &trace));
  pm::PassState st;
  st.program = four_unit_program();
  ASSERT_TRUE(mgr.run(st));
  EXPECT_FALSE(mgr.stopped_early());
}

TEST(PassManager, PrintAfterCapturesUnparsedProgram) {
  std::vector<std::string> trace;
  pm::PassManagerOptions opts;
  opts.print_after = "a";
  pm::PassManager mgr(opts);
  mgr.add(std::make_unique<NamedPass>("a", &trace));
  pm::PassState st;
  st.program = four_unit_program();
  ASSERT_TRUE(mgr.run(st));
  EXPECT_EQ(mgr.print_dump(), fir::unparse(*st.program));
}

TEST(PassManager, UnknownPassNameIsAnError) {
  for (auto knob : {&pm::PassManagerOptions::stop_after,
                    &pm::PassManagerOptions::print_after}) {
    std::vector<std::string> trace;
    pm::PassManagerOptions opts;
    opts.*knob = "nope";
    pm::PassManager mgr(opts);
    mgr.add(std::make_unique<NamedPass>("a", &trace));
    pm::PassState st;
    EXPECT_FALSE(mgr.run(st));
    EXPECT_NE(mgr.error().find("unknown pass name 'nope'"), std::string::npos);
    EXPECT_TRUE(trace.empty());  // rejected before anything ran
  }
}

TEST(PassManager, VerifierRejectsCorruptingPass) {
  // A pass that marks a non-DO statement parallel must be caught by the
  // post-pass verifier.
  class CorruptPass : public pm::Pass {
   public:
    std::string_view name() const override { return "corrupt"; }
    void run(pm::PassState& st) override {
      st.program->main()->body[0]->omp.parallel = true;
    }
  };
  pm::PassManagerOptions opts;
  opts.verify = true;
  pm::PassManager mgr(opts);
  mgr.add(std::make_unique<CorruptPass>());
  pm::PassState st;
  st.program = four_unit_program();
  EXPECT_FALSE(mgr.run(st));
  EXPECT_NE(mgr.error().find("verifier failed after pass 'corrupt'"),
            std::string::npos)
      << mgr.error();
}

TEST(PassManager, PerUnitDiagnosticsMergeInUnitOrder) {
  // Under a real pool, with delays arranged so later units finish first,
  // the merged diagnostics must still come out in unit-index order.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    pm::PassManagerOptions opts;
    opts.pool = &pool;
    pm::PassManager mgr(opts);
    mgr.add(std::make_unique<PerUnitNoisyPass>());
    pm::PassState st;
    st.program = four_unit_program();
    DiagnosticEngine diags;
    diags.set_stream("noisy-test");
    st.diags = &diags;
    ASSERT_TRUE(mgr.run(st));
    ASSERT_EQ(diags.all().size(), 4u);
    EXPECT_EQ(diags.all()[0].message, "visited T");
    EXPECT_EQ(diags.all()[1].message, "visited S1");
    EXPECT_EQ(diags.all()[2].message, "visited S2");
    EXPECT_EQ(diags.all()[3].message, "visited S3");
    // Private engines inherit the shared engine's stream name.
    for (const auto& d : diags.all()) EXPECT_EQ(d.stream, "noisy-test");
    ASSERT_EQ(mgr.records().size(), 1u);
    EXPECT_EQ(mgr.records()[0].units, 4);
    EXPECT_EQ(mgr.records()[0].diagnostics, 4);
  }
}

// --- Artifact protocol ------------------------------------------------------

// In-memory ArtifactStore that records every probe and store, with
// per-unit knobs for participation, served tier, and the invalidated
// miss classification — everything the manager's counters must reflect.
class FakeArtifactStore : public pm::ArtifactStore {
 public:
  struct Call {
    std::string pass;
    uint64_t prefix_fp;
    std::string unit;
  };

  std::vector<pm::ArtifactProbe> find_units(
      std::string_view pass_name, uint64_t prefix_fp,
      const std::vector<std::string>& unit_names) override {
    ++batches;
    std::vector<pm::ArtifactProbe> out;
    for (const auto& name : unit_names)
      out.push_back(find_unit(pass_name, prefix_fp, name));
    return out;
  }

  pm::ArtifactProbe find_unit(std::string_view pass_name, uint64_t prefix_fp,
                              const std::string& unit_name) {
    probes.push_back({std::string(pass_name), prefix_fp, unit_name});
    pm::ArtifactProbe p;
    p.participating = participating;
    if (!participating) return p;
    auto it = payloads.find(unit_name);
    if (it != payloads.end()) {
      p.payload = it->second;
      auto t = tiers.find(unit_name);
      p.tier = t == tiers.end() ? pm::ArtifactTier::Memory : t->second;
    } else {
      p.invalidated = invalidated_units.count(unit_name) > 0;
    }
    return p;
  }

  void store_unit(std::string_view pass_name, uint64_t prefix_fp,
                  const std::string& unit_name,
                  const std::string& payload) override {
    stores.push_back({std::string(pass_name), prefix_fp, unit_name});
    payloads[unit_name] = payload;
  }

  bool participating = true;
  std::map<std::string, std::string> payloads;
  std::map<std::string, pm::ArtifactTier> tiers;
  std::set<std::string> invalidated_units;
  std::vector<Call> probes;
  std::vector<Call> stores;
  int batches = 0;  // find_units calls
};

// A snapshotable PerUnit pass whose effect is observable from outside:
// run_unit records the unit as computed; restore accepts exactly the
// payloads this pass snapshots and records the unit as restored.
class SnapshotPass : public pm::Pass {
 public:
  std::string_view name() const override { return "snap"; }
  pm::PassKind kind() const override { return pm::PassKind::PerUnit; }
  bool snapshotable() const override { return true; }
  void run_unit(fir::ProgramUnit& unit, size_t, DiagnosticEngine&) override {
    computed.push_back(unit.name);
  }
  std::string snapshot_unit_artifact(const fir::ProgramUnit& unit,
                                     size_t) override {
    return "snap:" + unit.name;
  }
  bool restore_unit_artifact(fir::ProgramUnit& unit, size_t,
                             const std::string& payload) override {
    if (payload != "snap:" + unit.name) return false;
    restored.push_back(unit.name);
    return true;
  }

  std::vector<std::string> computed;
  std::vector<std::string> restored;
};

TEST(PassManager, ArtifactProtocolProbesRestoresAndStores) {
  FakeArtifactStore store;

  // Cold run: every unit probed, missed, computed, snapshotted back.
  {
    pm::PassManagerOptions opts;
    opts.artifacts = &store;
    pm::PassManager mgr(opts);
    auto pass = std::make_unique<SnapshotPass>();
    SnapshotPass* snap = pass.get();
    mgr.add(std::move(pass));
    pm::PassState st;
    st.program = four_unit_program();
    ASSERT_TRUE(mgr.run(st));
    EXPECT_EQ(snap->computed.size(), 4u);
    EXPECT_TRUE(snap->restored.empty());
    ASSERT_EQ(mgr.records().size(), 1u);
    const pm::PassRecord& rec = mgr.records()[0];
    EXPECT_EQ(rec.unit_hits, 0);
    EXPECT_EQ(rec.unit_misses, 4);
    ASSERT_EQ(store.probes.size(), 4u);
    ASSERT_EQ(store.stores.size(), 4u);
    // All four units were asked for in one call, before the fan-out.
    EXPECT_EQ(store.batches, 1);
    EXPECT_EQ(store.probes[0].pass, "snap");
    // The probe and the store of one run see the SAME prefix: the pass's
    // own name is folded into the sequence fingerprint only after it ran.
    EXPECT_EQ(store.probes[0].prefix_fp, store.stores[0].prefix_fp);
    EXPECT_EQ(store.payloads["S1"], "snap:S1");
  }

  // Warm run with tier labels: every unit restores, nothing recomputes,
  // and the per-tier counters split the hits the way the store reported.
  store.probes.clear();
  store.stores.clear();
  store.tiers["S1"] = pm::ArtifactTier::Disk;
  store.tiers["S2"] = pm::ArtifactTier::Peer;
  {
    pm::PassManagerOptions opts;
    opts.artifacts = &store;
    pm::PassManager mgr(opts);
    auto pass = std::make_unique<SnapshotPass>();
    SnapshotPass* snap = pass.get();
    mgr.add(std::move(pass));
    pm::PassState st;
    st.program = four_unit_program();
    ASSERT_TRUE(mgr.run(st));
    EXPECT_TRUE(snap->computed.empty());
    EXPECT_EQ(snap->restored.size(), 4u);
    const pm::PassRecord& rec = mgr.records()[0];
    EXPECT_EQ(rec.unit_hits, 4);
    EXPECT_EQ(rec.unit_misses, 0);
    EXPECT_EQ(rec.unit_disk_hits, 1);
    EXPECT_EQ(rec.unit_peer_hits, 1);
    EXPECT_TRUE(store.stores.empty());  // restores are not re-stored
  }

  // A corrupt payload and an invalidated miss: both recompute (and the
  // recompute re-stores a good payload); the invalidated miss is counted
  // separately so telemetry can tell "my edit" from "a dependency's".
  store.stores.clear();
  store.payloads["T"] = "garbage payload";
  store.payloads.erase("S3");
  store.invalidated_units.insert("S3");
  {
    pm::PassManagerOptions opts;
    opts.artifacts = &store;
    pm::PassManager mgr(opts);
    auto pass = std::make_unique<SnapshotPass>();
    SnapshotPass* snap = pass.get();
    mgr.add(std::move(pass));
    pm::PassState st;
    st.program = four_unit_program();
    ASSERT_TRUE(mgr.run(st));
    EXPECT_EQ(snap->computed, (std::vector<std::string>{"T", "S3"}));
    EXPECT_EQ(snap->restored.size(), 2u);
    const pm::PassRecord& rec = mgr.records()[0];
    EXPECT_EQ(rec.unit_hits, 2);
    EXPECT_EQ(rec.unit_misses, 2);
    EXPECT_EQ(rec.unit_invalidated, 1);
    ASSERT_EQ(store.stores.size(), 2u);  // both recomputes snapshotted back
    EXPECT_EQ(store.payloads["T"], "snap:T");
  }
}

TEST(PassManager, ArtifactKeysAreScopedByPassSequencePrefix) {
  // The same pass probed under two different upstream sequences must see
  // two different prefix fingerprints — a cached artifact can never leak
  // across pipelines whose earlier passes differ.
  auto prefix_under = [](std::vector<std::string> before) {
    FakeArtifactStore store;
    std::vector<std::string> trace;
    pm::PassManagerOptions opts;
    opts.artifacts = &store;
    pm::PassManager mgr(opts);
    for (auto& name : before)
      mgr.add(std::make_unique<NamedPass>(name, &trace));
    mgr.add(std::make_unique<SnapshotPass>());
    pm::PassState st;
    st.program = four_unit_program();
    EXPECT_TRUE(mgr.run(st));
    EXPECT_EQ(store.probes.size(), 4u);
    return store.probes.empty() ? 0u : store.probes[0].prefix_fp;
  };

  uint64_t bare = prefix_under({});
  uint64_t after_a = prefix_under({"a"});
  uint64_t after_ab = prefix_under({"a", "b"});
  EXPECT_NE(bare, after_a);
  EXPECT_NE(after_a, after_ab);
  EXPECT_NE(bare, after_ab);
  // Deterministic: the same sequence reproduces the same prefix.
  EXPECT_EQ(after_a, prefix_under({"a"}));
}

TEST(PassManager, NonParticipatingStoreLeavesCountersAndPassAlone) {
  // The store can decline per run (e.g. no usable plan): the pass runs
  // exactly as if no store were attached, with all counters zero and no
  // snapshots taken.
  FakeArtifactStore store;
  store.participating = false;
  pm::PassManagerOptions opts;
  opts.artifacts = &store;
  pm::PassManager mgr(opts);
  auto pass = std::make_unique<SnapshotPass>();
  SnapshotPass* snap = pass.get();
  mgr.add(std::move(pass));
  pm::PassState st;
  st.program = four_unit_program();
  ASSERT_TRUE(mgr.run(st));
  EXPECT_EQ(snap->computed.size(), 4u);
  EXPECT_TRUE(snap->restored.empty());
  const pm::PassRecord& rec = mgr.records()[0];
  EXPECT_EQ(rec.unit_hits + rec.unit_misses + rec.unit_invalidated, 0);
  EXPECT_EQ(store.probes.size(), 4u);  // asked, declined
  EXPECT_TRUE(store.stores.empty());
}

// --- DiagnosticEngine::merge -----------------------------------------------

TEST(DiagnosticEngine, MergeAppendsInOrderAndSumsErrors) {
  DiagnosticEngine a;
  a.set_stream("a");
  a.error({}, "first");

  DiagnosticEngine b;
  b.set_stream("b");
  b.warning({}, "second");
  b.error({}, "third");

  a.merge(std::move(b));
  ASSERT_EQ(a.all().size(), 3u);
  EXPECT_EQ(a.all()[0].message, "first");
  EXPECT_EQ(a.all()[1].message, "second");
  EXPECT_EQ(a.all()[2].message, "third");
  EXPECT_EQ(a.all()[1].stream, "b");  // diagnostics keep their origin stream
  EXPECT_EQ(a.error_count(), 2u);
  EXPECT_EQ(b.all().size(), 0u);  // drained
}

// --- Golden: unit-parallel == sequential for the whole suite ---------------

struct GoldenOutput {
  std::string text;
  std::set<int64_t> parallel_loops;
  size_t code_lines = 0;
  std::vector<std::string> verdicts;
};

GoldenOutput run_golden(const suite::BenchmarkApp& app,
                        driver::InlineConfig cfg, int unit_threads) {
  driver::PipelineOptions o;
  o.config = cfg;
  o.unit_threads = unit_threads;
  auto r = driver::run_pipeline(app, o);
  EXPECT_TRUE(r.ok) << app.name << ": " << r.error;
  GoldenOutput g;
  if (!r.ok) return g;
  g.text = fir::unparse(*r.program);
  g.parallel_loops = r.parallel_loops;
  g.code_lines = r.code_lines;
  for (const auto& v : r.par.loops)
    g.verdicts.push_back(v.unit + "/" + v.do_var + "#" +
                         std::to_string(v.origin_id) + "=" +
                         (v.parallel ? "par" : v.reason));
  return g;
}

class UnitParallelGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(UnitParallelGolden, BitIdenticalAtEveryLaneCount) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  unsigned hw = std::thread::hardware_concurrency();
  int hw_threads = hw ? static_cast<int>(hw) : 2;
  for (auto cfg :
       {driver::InlineConfig::None, driver::InlineConfig::Conventional,
        driver::InlineConfig::Annotation}) {
    GoldenOutput seq = run_golden(*app, cfg, 1);
    for (int threads : {4, hw_threads}) {
      GoldenOutput par = run_golden(*app, cfg, threads);
      EXPECT_EQ(par.text, seq.text)
          << app->name << "/" << driver::config_name(cfg) << " @" << threads;
      EXPECT_EQ(par.parallel_loops, seq.parallel_loops)
          << app->name << "/" << driver::config_name(cfg) << " @" << threads;
      EXPECT_EQ(par.code_lines, seq.code_lines);
      EXPECT_EQ(par.verdicts, seq.verdicts)
          << app->name << "/" << driver::config_name(cfg) << " @" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, UnitParallelGolden,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& app : suite::perfect_suite())
                             names.push_back(app.name);
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ap

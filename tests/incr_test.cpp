// Tests for the unit-granular incremental compilation cache (src/incr):
// token-level unit fingerprints, the CALL/COMMON dependence graph (directed
// summary-dependence rule and the bidirectional verification mode) and its
// invalidation sets, content-only plan keys, snapshot (de)serialization,
// the tiered unit-artifact cache with its peer hooks, and — the
// load-bearing property — that incremental recompiles are bit-identical to
// cold compiles for every suite app under every inlining configuration,
// including under randomized single-unit edits, parallelizer option flips
// that resume at the normalize boundary, and both dependence modes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "fir/parser.h"
#include "fir/unparse.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/plan.h"
#include "incr/unit_cache.h"
#include "incr/unit_serial.h"
#include "interp/interp.h"
#include "suite/suite.h"
#include "support/diagnostics.h"
#include "support/fnv.h"
#include "tests/test_util.h"

namespace ap {
namespace {

namespace fs = std::filesystem;
using driver::InlineConfig;
using driver::PipelineOptions;
using driver::PipelineResult;

// A unique per-test temp directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ap_incr_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// A six-unit app with a deliberately shaped dependence graph:
//
//   DRIVER --calls--> INITA, WORKB, LEAF
//   INITA  --calls--> HUB       INITA <--/SHARED/--> CDEF
//   WORKB  --calls--> HUB
//   HUB, LEAF, CDEF: no outgoing edges
//
// INITA and CDEF each both read and write S1, so their COMMON edges point
// both ways. COMMON edges are one-hop summary dependence: closure(CDEF)
// = {CDEF, INITA} — CDEF consults INITA's read/write summary, which does
// not embed HUB's text, so HUB stays out even though INITA calls it. CALL
// edges stay transitive: closure(INITA) = {INITA, HUB, CDEF} and
// closure(DRIVER) = everything. LEAF is the satellite's "leaf unit", CDEF
// the "COMMON-defining unit", HUB the "hub called by everyone".
suite::BenchmarkApp shaped_app() {
  suite::BenchmarkApp app;
  app.name = "SHAPED";
  app.description = "dependence-graph shape fixture";
  app.source = R"(
      PROGRAM DRIVER
      DOUBLE PRECISION R(64)
      CALL INITA(R)
      CALL WORKB(R)
      CALL LEAF(R)
      S = 0.0D0
      DO 90 I = 1, 64
        S = S + R(I)
90    CONTINUE
      WRITE(*,*) 'SHAPED CHECKSUM', S
      END

      SUBROUTINE INITA(R)
      DOUBLE PRECISION R(64)
      COMMON /SHARED/ S1(64)
      DO 10 I = 1, 64
        S1(I) = I * 0.5D0
10    CONTINUE
      DO 11 I = 1, 64
        R(I) = S1(I)
11    CONTINUE
      CALL HUB(R, 1)
      END

      SUBROUTINE WORKB(R)
      DOUBLE PRECISION R(64)
      DO 20 I = 1, 64
        R(I) = R(I) + I * 0.25D0
20    CONTINUE
      CALL HUB(R, 2)
      END

      SUBROUTINE HUB(R, K)
      DOUBLE PRECISION R(64)
      DO 30 I = 1, 64
        R(I) = R(I) + K * 0.125D0
30    CONTINUE
      END

      SUBROUTINE CDEF
      COMMON /SHARED/ S1(64)
      DO 40 I = 1, 64
        S1(I) = S1(I) * 1.5D0
40    CONTINUE
      END

      SUBROUTINE LEAF(R)
      DOUBLE PRECISION R(64)
      DO 50 I = 1, 64
        R(I) = R(I) + 1.0D0
50    CONTINUE
      END
)";
  return app;
}

// Every comparison the service caches care about: the final program text,
// the paper metrics, and the full per-loop verdict list.
void expect_identical(const PipelineResult& a, const PipelineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  ASSERT_TRUE(a.program != nullptr) << what;
  ASSERT_TRUE(b.program != nullptr) << what;
  EXPECT_EQ(fir::unparse(*a.program), fir::unparse(*b.program)) << what;
  EXPECT_EQ(a.parallel_loops, b.parallel_loops) << what;
  EXPECT_EQ(a.code_lines, b.code_lines) << what;
  EXPECT_EQ(a.par.parallelized, b.par.parallelized) << what;
  EXPECT_EQ(a.par.dep_tests, b.par.dep_tests) << what;
  EXPECT_EQ(a.par.dep_tests_unique, b.par.dep_tests_unique) << what;
  ASSERT_EQ(a.par.loops.size(), b.par.loops.size()) << what;
  for (size_t i = 0; i < a.par.loops.size(); ++i) {
    const auto& la = a.par.loops[i];
    const auto& lb = b.par.loops[i];
    EXPECT_EQ(la.origin_id, lb.origin_id) << what << " loop " << i;
    EXPECT_EQ(la.unit, lb.unit) << what << " loop " << i;
    EXPECT_EQ(la.do_var, lb.do_var) << what << " loop " << i;
    EXPECT_EQ(la.parallel, lb.parallel) << what << " loop " << i;
    EXPECT_EQ(la.reason, lb.reason) << what << " loop " << i;
    EXPECT_EQ(la.blockers.size(), lb.blockers.size()) << what << " loop " << i;
  }
}

// Execute both programs on `engine` and require identical RunResults.
void expect_identical_runs(const fir::Program& a, const fir::Program& b,
                           interp::Engine engine, const std::string& what) {
  interp::InterpOptions io;
  io.engine = engine;
  io.num_threads = 1;
  interp::RunResult ra = interp::Interpreter(a, io).run();
  interp::RunResult rb = interp::Interpreter(b, io).run();
  EXPECT_EQ(ra.ok, rb.ok) << what;
  EXPECT_EQ(ra.output, rb.output) << what;
  EXPECT_EQ(ra.stop_message, rb.stop_message) << what;
  EXPECT_EQ(ra.statements_executed, rb.statements_executed) << what;
  EXPECT_EQ(ra.statements_in_parallel, rb.statements_in_parallel) << what;
}

std::set<std::string> closure_names(const incr::UnitDepGraph& g,
                                    const std::string& name) {
  std::set<std::string> out;
  for (size_t i : g.closure[g.index.at(name)]) out.insert(g.names[i]);
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, SplitMatchesParseForEverySuiteApp) {
  for (const auto& app : suite::perfect_suite()) {
    auto fps = incr::fingerprint_units(app.source, app.annotations);
    ASSERT_TRUE(fps.ok) << app.name;
    auto prog = test::parse_ok(app.source);
    ASSERT_TRUE(prog) << app.name;
    ASSERT_EQ(fps.units.size(), prog->units.size()) << app.name;
    for (size_t i = 0; i < fps.units.size(); ++i)
      EXPECT_EQ(fps.units[i].name, prog->units[i]->name)
          << app.name << " unit " << i;
  }
}

TEST(Fingerprint, EditChangesExactlyTheEditedUnit) {
  auto app = shaped_app();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string edited = incr::mutate_unit(app.source, "WORKB", 7);
  ASSERT_NE(edited, app.source);
  auto after = incr::fingerprint_units(edited, app.annotations);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i) {
    ASSERT_EQ(before.units[i].name, after.units[i].name);
    if (before.units[i].name == "WORKB")
      EXPECT_NE(before.units[i].fp, after.units[i].fp);
    else
      EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
  }
}

TEST(Fingerprint, CommentAndBlankLineEditsChangeNothing) {
  auto app = shaped_app();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  // A comment inside LEAF and a blank line inside HUB: the lexer drops
  // both, so every fingerprint must survive byte-for-byte.
  std::string edited = app.source;
  size_t at = edited.find("      SUBROUTINE LEAF");
  ASSERT_NE(at, std::string::npos);
  edited.insert(at, "C a developer comment that must not invalidate\n");
  size_t hub = edited.find("      SUBROUTINE HUB");
  ASSERT_NE(hub, std::string::npos);
  edited.insert(hub, "\n\n");
  auto after = incr::fingerprint_units(edited, app.annotations);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i)
    EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
}

TEST(Fingerprint, AnnotationEditInvalidatesOnlyTheNamedUnit) {
  auto app = suite::make_adm();  // annotates SMOOTH
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string annots = app.annotations;
  size_t at = annots.find("COL[1:64]");
  ASSERT_NE(at, std::string::npos);
  annots.replace(at, 9, "COL[2:63]");
  auto after = incr::fingerprint_units(app.source, annots);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i) {
    if (before.units[i].name == "SMOOTH")
      EXPECT_NE(before.units[i].fp, after.units[i].fp);
    else
      EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
  }
}

TEST(Fingerprint, OrphanAnnotationEntrySaltsEveryUnit) {
  auto app = suite::make_adm();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string annots = app.annotations +
                       "\nsubroutine NOSUCHUNIT(X) {\n  dimension X[4];\n}\n";
  auto after = incr::fingerprint_units(app.source, annots);
  ASSERT_TRUE(after.ok);
  for (size_t i = 0; i < before.units.size(); ++i)
    EXPECT_NE(before.units[i].fp, after.units[i].fp) << before.units[i].name;
}

TEST(Fingerprint, MutateUnitUnknownNameReturnsInputUnchanged) {
  auto app = shaped_app();
  EXPECT_EQ(incr::mutate_unit(app.source, "NOSUCH", 3), app.source);
}

// ---------------------------------------------------------------------------
// Dependence graph
// ---------------------------------------------------------------------------

TEST(DepGraph, ExactClosuresOnShapedApp) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog);
  ASSERT_EQ(g.names.size(), 6u);

  EXPECT_EQ(closure_names(g, "LEAF"), (std::set<std::string>{"LEAF"}));
  EXPECT_EQ(closure_names(g, "HUB"), (std::set<std::string>{"HUB"}));
  EXPECT_EQ(closure_names(g, "WORKB"),
            (std::set<std::string>{"HUB", "WORKB"}));
  EXPECT_EQ(closure_names(g, "INITA"),
            (std::set<std::string>{"CDEF", "HUB", "INITA"}));
  // One-hop summary dependence: CDEF consults INITA's read/write summary,
  // not INITA's inlined text, so INITA's callee HUB stays out.
  EXPECT_EQ(closure_names(g, "CDEF"),
            (std::set<std::string>{"CDEF", "INITA"}));
  EXPECT_EQ(closure_names(g, "DRIVER"),
            (std::set<std::string>{"CDEF", "DRIVER", "HUB", "INITA", "LEAF",
                                   "WORKB"}));
}

TEST(DepGraph, InvalidationSetsForLeafCommonAndHubEdits) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog);

  // (a) leaf unit: only itself and the units that (transitively) call it.
  EXPECT_EQ(incr::invalidated_by_edit(g, "LEAF"),
            (std::set<std::string>{"DRIVER", "LEAF"}));
  // (b) COMMON-defining unit: its block sharers and their callers, even
  // though nothing ever CALLs it.
  EXPECT_EQ(incr::invalidated_by_edit(g, "CDEF"),
            (std::set<std::string>{"CDEF", "DRIVER", "INITA"}));
  // (c) hub called by everyone that calls: its callers, but NOT CDEF —
  // CDEF's dependence on INITA is summary-level, and HUB cannot change
  // INITA's read/write summary.
  EXPECT_EQ(incr::invalidated_by_edit(g, "HUB"),
            (std::set<std::string>{"DRIVER", "HUB", "INITA", "WORKB"}));
  // Unknown units invalidate only themselves.
  EXPECT_EQ(incr::invalidated_by_edit(g, "NOSUCH"),
            (std::set<std::string>{"NOSUCH"}));
}

// The saturation-breaking property of directed mode: COMMON dependence is
// one hop (the reader needs the writer's own fingerprint, because the
// read/write summary is intraprocedural), so an edit to the WRITER's
// helper callee does not leak to the reader. Bidirectional mode, which
// closes every edge transitively, does leak it — that is exactly the
// over-invalidation the directed rule removes.
TEST(DepGraph, CommonSummaryDependenceIsOneHop) {
  const char* src = R"(
      PROGRAM TOP
      CALL WRITER
      CALL READER
      END

      SUBROUTINE WRITER
      COMMON /B/ X(8)
      CALL HELPER
      DO 10 I = 1, 8
        X(I) = I * 2.0
10    CONTINUE
      END

      SUBROUTINE HELPER
      T = 1.0
      DO 20 I = 1, 4
        T = T + I
20    CONTINUE
      END

      SUBROUTINE READER
      COMMON /B/ X(8)
      S = 0.0
      DO 30 I = 1, 8
        S = S + X(I)
30    CONTINUE
      WRITE(*,*) S
      END
)";
  auto prog = test::parse_ok(src);
  ASSERT_TRUE(prog);

  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  // READER depends on WRITER (it writes X) but not on WRITER's callee.
  EXPECT_EQ(closure_names(g, "READER"),
            (std::set<std::string>{"READER", "WRITER"}));
  EXPECT_EQ(closure_names(g, "WRITER"),
            (std::set<std::string>{"HELPER", "WRITER"}));
  // Editing the helper invalidates its callers, not the COMMON reader.
  EXPECT_EQ(incr::invalidated_by_edit(g, "HELPER"),
            (std::set<std::string>{"HELPER", "TOP", "WRITER"}));
  // Editing the read-only READER invalidates no sharer.
  EXPECT_EQ(incr::invalidated_by_edit(g, "READER"),
            (std::set<std::string>{"READER", "TOP"}));

  auto b = incr::build_dep_graph(*prog, incr::DepMode::Bidirectional);
  // The symmetric rule chains READER -> WRITER -> HELPER.
  EXPECT_EQ(closure_names(b, "READER"),
            (std::set<std::string>{"HELPER", "READER", "WRITER"}));
  EXPECT_TRUE(incr::invalidated_by_edit(b, "HELPER").count("READER"));
  EXPECT_TRUE(incr::invalidated_by_edit(b, "READER").count("WRITER"));
}

// Sharers that disagree on a block's member list are positionally coupled;
// name matching is meaningless, so the block falls back to symmetric
// edges — even between two units that only read it.
TEST(DepGraph, LayoutMismatchFallsBackToSymmetricEdges) {
  const char* src = R"(
      PROGRAM TOP
      WRITE(*,*) 'OK'
      END

      SUBROUTINE RA
      COMMON /B/ X(4)
      S = X(1)
      WRITE(*,*) S
      END

      SUBROUTINE RB
      COMMON /B/ Y(4)
      T = Y(2)
      WRITE(*,*) T
      END
)";
  auto prog = test::parse_ok(src);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  EXPECT_EQ(closure_names(g, "RA"), (std::set<std::string>{"RA", "RB"}));
  EXPECT_EQ(closure_names(g, "RB"), (std::set<std::string>{"RA", "RB"}));
  EXPECT_EQ(incr::invalidated_by_edit(g, "RA"),
            (std::set<std::string>{"RA", "RB"}));
}

// The tentpole measurement on the real fixture: DYFESM's main program
// initialises most COMMON members and calls most units, so the symmetric
// rule (and a naively transitive directed rule) saturates — any edit
// invalidates 11 of 12 units. Directed one-hop COMMON dependence keeps a
// FORMP edit down to {FORMP, its caller FSMP, the main program}: 9 of 12
// units reusable, against the 1/12 ceiling.
TEST(DepGraph, DirectedDyfesmFormpEditInvalidatesOnlyCallChain) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);
  auto prog = test::parse_ok(app->source);
  ASSERT_TRUE(prog);
  ASSERT_EQ(prog->units.size(), 12u);

  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  EXPECT_EQ(incr::invalidated_by_edit(g, "FORMP"),
            (std::set<std::string>{"DYFESM", "FORMP", "FSMP"}));
  // A subroutine's closure reaches the main program (which writes what it
  // reads) but stops there — no cycle back through the call tree.
  EXPECT_EQ(closure_names(g, "GETCR"),
            (std::set<std::string>{"DYFESM", "GETCR"}));

  auto b = incr::build_dep_graph(*prog, incr::DepMode::Bidirectional);
  EXPECT_EQ(incr::invalidated_by_edit(b, "FORMP").size(), 11u);

  // Directed never invalidates more than bidirectional, for any edit.
  for (const auto& name : g.names) {
    auto dv = incr::invalidated_by_edit(g, name);
    auto bv = incr::invalidated_by_edit(b, name);
    for (const auto& u : dv)
      EXPECT_TRUE(bv.count(u)) << "edit " << name << " unit " << u;
  }
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

TEST(Plan, UsableForEverySuiteAppAndKeyedByClosure) {
  for (const auto& app : suite::perfect_suite()) {
    auto plan = incr::make_plan(app.source, app.annotations);
    EXPECT_TRUE(plan.usable) << app.name;
    EXPECT_FALSE(plan.entries.empty()) << app.name;
  }
}

TEST(Plan, UnusableOnUnsplittableSource) {
  auto plan = incr::make_plan("X = 1\n", "");
  EXPECT_FALSE(plan.usable);
}

TEST(Plan, EditChangesExactlyTheInvalidatedKeys) {
  auto app = shaped_app();
  auto before = incr::make_plan(app.source, app.annotations);
  ASSERT_TRUE(before.usable);
  std::string edited = incr::mutate_unit(app.source, "CDEF", 11);
  auto after = incr::make_plan(edited, app.annotations);
  ASSERT_TRUE(after.usable);
  std::set<std::string> expected{"CDEF", "DRIVER", "INITA"};
  for (const auto& [name, entry] : before.entries) {
    const incr::PlanEntry* e = after.find(name);
    ASSERT_TRUE(e != nullptr) << name;
    if (expected.count(name))
      EXPECT_NE(entry.key, e->key) << name;
    else
      EXPECT_EQ(entry.key, e->key) << name;
    // Only the edited unit's own fingerprint moves.
    if (name == "CDEF")
      EXPECT_NE(entry.own_fp, e->own_fp);
    else
      EXPECT_EQ(entry.own_fp, e->own_fp) << name;
  }
}

// Plan keys are content-only (the artifact layer adds option hashes per
// boundary): the same source always produces the same keys, and the two
// dependence modes differ exactly where their closures differ.
TEST(Plan, KeysAreContentOnlyAndModeAware) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);
  auto a = incr::make_plan(app->source, app->annotations);
  auto b = incr::make_plan(app->source, app->annotations);
  ASSERT_TRUE(a.usable);
  ASSERT_TRUE(b.usable);
  for (const auto& [name, entry] : a.entries)
    EXPECT_EQ(entry.key, b.find(name)->key) << name;

  auto bid = incr::make_plan(app->source, app->annotations,
                             incr::DepMode::Bidirectional);
  ASSERT_TRUE(bid.usable);
  // GETCR's closure is {DYFESM, GETCR} directed vs all 12 bidirectional.
  EXPECT_NE(a.find("GETCR")->key, bid.find("GETCR")->key);
  // CHOFAC shares no COMMON block: closure {CHOFAC} in both modes.
  EXPECT_EQ(a.find("CHOFAC")->key, bid.find("CHOFAC")->key);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

incr::UnitSnapshot sample_snapshot() {
  incr::UnitSnapshot snap;
  snap.do_count = 5;
  fir::OmpInfo omp;
  omp.parallel = true;
  omp.privates = {"I", "T"};
  omp.firstprivates = {"S"};
  omp.reductions.push_back({"+", "ACC"});
  omp.nowait = true;
  snap.marks.push_back({2, omp});
  fir::OmpInfo plain;
  plain.parallel = true;
  snap.marks.push_back({4, plain});
  par::LoopVerdict v;
  v.origin_id = 42;
  v.unit = "WORKB";
  v.do_var = "I";
  v.parallel = false;
  v.reason = "scalar S written";
  par::Blocker b;
  b.kind = par::Blocker::Kind::Scalar;
  b.subject = "S";
  v.blockers.push_back(b);
  snap.par.loops.push_back(v);
  snap.par.parallelized = 1;
  snap.par.dep_tests = 17;
  snap.par.dep_tests_unique = 9;
  return snap;
}

TEST(Snapshot, SerializeRoundTripPreservesEverything) {
  incr::UnitSnapshot snap = sample_snapshot();
  std::string text = serialize_snapshot(snap);
  auto back = incr::deserialize_snapshot(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->do_count, snap.do_count);
  ASSERT_EQ(back->marks.size(), snap.marks.size());
  EXPECT_EQ(back->marks[0].do_index, 2u);
  EXPECT_TRUE(back->marks[0].omp.parallel);
  EXPECT_EQ(back->marks[0].omp.privates, snap.marks[0].omp.privates);
  EXPECT_EQ(back->marks[0].omp.firstprivates,
            snap.marks[0].omp.firstprivates);
  ASSERT_EQ(back->marks[0].omp.reductions.size(), 1u);
  EXPECT_EQ(back->marks[0].omp.reductions[0].op, "+");
  EXPECT_EQ(back->marks[0].omp.reductions[0].var, "ACC");
  EXPECT_TRUE(back->marks[0].omp.nowait);
  EXPECT_EQ(back->marks[1].do_index, 4u);
  ASSERT_EQ(back->par.loops.size(), 1u);
  EXPECT_EQ(back->par.loops[0].origin_id, 42);
  EXPECT_EQ(back->par.loops[0].unit, "WORKB");
  EXPECT_EQ(back->par.loops[0].reason, "scalar S written");
  ASSERT_EQ(back->par.loops[0].blockers.size(), 1u);
  EXPECT_EQ(back->par.loops[0].blockers[0].kind, par::Blocker::Kind::Scalar);
  EXPECT_EQ(back->par.loops[0].blockers[0].subject, "S");
  EXPECT_EQ(back->par.parallelized, 1);
  EXPECT_EQ(back->par.dep_tests, 17u);
  EXPECT_EQ(back->par.dep_tests_unique, 9u);
}

TEST(Snapshot, DeserializeRejectsGarbageAndWrongVersion) {
  EXPECT_FALSE(incr::deserialize_snapshot("").has_value());
  EXPECT_FALSE(incr::deserialize_snapshot("not a snapshot").has_value());
  std::string text = serialize_snapshot(sample_snapshot());
  std::string wrong = text;
  size_t at = wrong.find("APUNIT 2");
  ASSERT_NE(at, std::string::npos);
  wrong.replace(at, 8, "APUNIT 999");
  EXPECT_FALSE(incr::deserialize_snapshot(wrong).has_value());
}

TEST(Snapshot, ApplyRejectsDoShapeMismatch) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  fir::ProgramUnit* unit = prog->find_unit("WORKB");
  ASSERT_TRUE(unit != nullptr);
  incr::UnitSnapshot snap;
  snap.do_count = 99;  // WORKB has one DO loop
  EXPECT_FALSE(incr::apply_snapshot(*unit, snap));
  snap.do_count = 1;
  snap.marks.push_back({7, fir::OmpInfo{}});  // index out of range
  EXPECT_FALSE(incr::apply_snapshot(*unit, snap));
}

// The normalize boundary's payload: an exact AST round trip.
TEST(Snapshot, UnitSerialRoundTripIsExact) {
  for (const char* name : {"DYFESM", "TRFD"}) {
    const suite::BenchmarkApp* app = suite::find_app(name);
    ASSERT_TRUE(app != nullptr) << name;
    auto prog = test::parse_ok(app->source);
    ASSERT_TRUE(prog) << name;
    for (const auto& unit : prog->units) {
      std::string payload = incr::serialize_unit(*unit);
      auto back = incr::deserialize_unit(payload);
      ASSERT_TRUE(back.has_value() && *back) << name << "/" << unit->name;
      EXPECT_EQ(fir::unparse_unit(**back), fir::unparse_unit(*unit))
          << name << "/" << unit->name;
      // Semantic fields the unparser does not show must round-trip too.
      std::vector<int64_t> ids_a, ids_b;
      fir::walk_stmts(unit->body, [&](const fir::Stmt& s) {
        if (s.kind == fir::StmtKind::Do) ids_a.push_back(s.origin_id);
        return true;
      });
      fir::walk_stmts((*back)->body, [&](const fir::Stmt& s) {
        if (s.kind == fir::StmtKind::Do) ids_b.push_back(s.origin_id);
        return true;
      });
      EXPECT_EQ(ids_a, ids_b) << name << "/" << unit->name;
    }
  }
  EXPECT_FALSE(incr::deserialize_unit("").has_value());
  EXPECT_FALSE(incr::deserialize_unit("APUSER 1 garbage").has_value());
}

// ---------------------------------------------------------------------------
// Unit cache store
// ---------------------------------------------------------------------------

TEST(UnitCacheStore, MemoryLruEvictsOldest) {
  incr::UnitCache cache(2);
  cache.store("parallelize", 1, 101, "p-one");
  cache.store("parallelize", 2, 102, "p-two");
  // 1 is now MRU.
  EXPECT_TRUE(cache.find("parallelize", 1, 101).payload.has_value());
  cache.store("parallelize", 3, 103, "p-three");  // evicts 2
  EXPECT_EQ(cache.memory_entries(), 2u);
  auto r1 = cache.find("parallelize", 1, 101);
  ASSERT_TRUE(r1.payload.has_value());
  EXPECT_EQ(*r1.payload, "p-one");
  EXPECT_EQ(r1.tier, incr::UnitTier::Memory);
  EXPECT_FALSE(cache.find("parallelize", 2, 102).payload.has_value());
  EXPECT_TRUE(cache.find("parallelize", 3, 103).payload.has_value());
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.stores, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.memory_hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(UnitCacheStore, DiskTierSurvivesRestartAndPromotes) {
  TempDir dir("disk");
  uint64_t key = 0xabcdef12345678ull;
  std::string payload = serialize_snapshot(sample_snapshot());
  {
    incr::UnitCache cache(8, dir.path.string());
    cache.store("parallelize", key, 7, payload);
  }
  incr::UnitCache cache(8, dir.path.string());
  EXPECT_EQ(cache.memory_entries(), 0u);
  auto hit = cache.find("parallelize", key, 7);  // disk hit, promoted
  ASSERT_TRUE(hit.payload.has_value());
  EXPECT_EQ(hit.tier, incr::UnitTier::Disk);
  auto snap = incr::deserialize_snapshot(*hit.payload);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->par.dep_tests, 17u);
  EXPECT_EQ(cache.memory_entries(), 1u);
  EXPECT_EQ(cache.find("parallelize", key, 7).tier, incr::UnitTier::Memory);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.memory_hits, 1u);
}

TEST(UnitCacheStore, MissWithKnownFingerprintCountsAsInvalidated) {
  incr::UnitCache cache(8);
  cache.store("parallelize", /*key=*/100, /*own_fp=*/55, "payload");
  // Same unit fingerprint under a new key: a dependency changed.
  auto r = cache.find("parallelize", /*key=*/200, /*own_fp=*/55);
  EXPECT_FALSE(r.payload.has_value());
  EXPECT_TRUE(r.invalidated);
  // Unknown fingerprint: a plain (cold or self-edit) miss.
  r = cache.find("parallelize", /*key=*/300, /*own_fp=*/66);
  EXPECT_FALSE(r.payload.has_value());
  EXPECT_FALSE(r.invalidated);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidated_by_dep, 1u);
}

TEST(UnitCacheStore, StatsAreKeptPerBoundary) {
  incr::UnitCache cache(8);
  cache.store("normalize", 1, 11, "n");
  cache.store("parallelize", 2, 22, "p");
  EXPECT_TRUE(cache.find("normalize", 1, 11).payload.has_value());
  EXPECT_FALSE(cache.find("parallelize", 9, 22).payload.has_value());
  auto by = cache.boundary_stats();
  ASSERT_TRUE(by.count("normalize"));
  ASSERT_TRUE(by.count("parallelize"));
  EXPECT_EQ(by["normalize"].memory_hits, 1u);
  EXPECT_EQ(by["normalize"].misses, 0u);
  EXPECT_EQ(by["parallelize"].memory_hits, 0u);
  EXPECT_EQ(by["parallelize"].misses, 1u);
  EXPECT_EQ(by["parallelize"].invalidated_by_dep, 1u);
  incr::IncrStats total = cache.stats();
  EXPECT_EQ(total.memory_hits, 1u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.stores, 2u);
}

// The peer tier: a local miss consults the hook and adopts the payload;
// peek/adopt (the wire-serving entry points) never recurse into the hooks.
TEST(UnitCacheStore, PeerHookServesMissesWithoutRecursion) {
  incr::UnitCache cache(8);
  int lookups = 0, fills = 0;
  cache.set_peer_lookup([&](const std::string& boundary,
                            const std::vector<uint64_t>& keys) {
    ++lookups;
    EXPECT_EQ(boundary, "parallelize");
    std::vector<std::optional<std::string>> out(keys.size());
    for (size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == 7) out[i] = "from-peer";
    return out;
  });
  cache.set_store_hook(
      [&](const std::string&, uint64_t, const std::string&) { ++fills; });

  auto r = cache.find("parallelize", 7, 1);
  ASSERT_TRUE(r.payload.has_value());
  EXPECT_EQ(*r.payload, "from-peer");
  EXPECT_EQ(r.tier, incr::UnitTier::Peer);
  EXPECT_EQ(lookups, 1);
  // The adopted payload was NOT replicated back (no fill recursion).
  EXPECT_EQ(fills, 0);
  // Second find: served from memory, no second probe.
  EXPECT_EQ(cache.find("parallelize", 7, 1).tier, incr::UnitTier::Memory);
  EXPECT_EQ(lookups, 1);
  // A genuine miss probes the peer and still misses.
  EXPECT_FALSE(cache.find("parallelize", 8, 2).payload.has_value());
  EXPECT_EQ(lookups, 2);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.peer_hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // peek (peer-serving read) never consults the peer hook.
  EXPECT_FALSE(cache.peek(9).has_value());
  EXPECT_EQ(lookups, 2);
  ASSERT_TRUE(cache.peek(7).has_value());
  // adopt (peer-pushed fill) never fires the store hook.
  cache.adopt("parallelize", 10, "pushed");
  EXPECT_EQ(fills, 0);
  EXPECT_TRUE(cache.peek(10).has_value());
  // A local store DOES fire it (replication to peers).
  cache.store("parallelize", 11, 3, "local");
  EXPECT_EQ(fills, 1);
}

// A boundary's lookups answer from memory first, then ask the peer hook
// ONCE for every key memory missed, in query order; each slot keeps its
// own tier and miss classification.
TEST(UnitCacheStore, BatchedFindAsksThePeerOnceForAllLocalMisses) {
  incr::UnitCache cache(8);
  cache.store("parallelize", 1, 11, "local");
  cache.store("parallelize", 40, 44, "old-key");  // fp 44 known under 40
  std::vector<std::vector<uint64_t>> asked;
  cache.set_peer_lookup([&](const std::string&,
                            const std::vector<uint64_t>& keys) {
    asked.push_back(keys);
    std::vector<std::optional<std::string>> out(keys.size());
    for (size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == 3) out[i] = "peer-three";
    return out;
  });

  auto r = cache.find_many("parallelize",
                           {{2, 22}, {1, 11}, {3, 33}, {41, 44}});
  ASSERT_EQ(asked.size(), 1u);
  EXPECT_EQ(asked[0], (std::vector<uint64_t>{2, 3, 41}));
  ASSERT_EQ(r.size(), 4u);
  EXPECT_FALSE(r[0].payload.has_value());
  EXPECT_FALSE(r[0].invalidated);
  EXPECT_EQ(r[1].tier, incr::UnitTier::Memory);
  EXPECT_EQ(*r[1].payload, "local");
  EXPECT_EQ(r[2].tier, incr::UnitTier::Peer);
  EXPECT_EQ(*r[2].payload, "peer-three");
  EXPECT_FALSE(r[3].payload.has_value());
  EXPECT_TRUE(r[3].invalidated);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.memory_hits, 1u);
  EXPECT_EQ(s.peer_hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidated_by_dep, 1u);

  // All hits locally: the peer is not asked at all.
  cache.find_many("parallelize", {{1, 11}, {3, 33}});
  EXPECT_EQ(asked.size(), 1u);
}

// The (boundary, fingerprint) -> last key memory behind miss
// classification is tied to the memory tier: storing many more distinct
// fingerprints than the capacity keeps it at or below the capacity, and
// the pairs of keys still held keep classifying misses.
TEST(UnitCacheStore, FingerprintBookkeepingIsBoundedByCapacity) {
  constexpr size_t kCapacity = 8;
  incr::UnitCache cache(kCapacity);
  for (uint64_t i = 0; i < 10 * kCapacity; ++i) {
    const char* boundary = i % 2 ? "normalize" : "parallelize";
    cache.store(boundary, 1000 + i, 5000 + i, "p");
    EXPECT_LE(cache.fingerprint_entries(), kCapacity) << i;
  }
  EXPECT_EQ(cache.memory_entries(), kCapacity);
  EXPECT_EQ(cache.fingerprint_entries(), kCapacity);

  // A held key's fingerprint under a new key: dependency changed.
  uint64_t last = 10 * kCapacity - 1;  // stored under "normalize"
  auto r = cache.find("normalize", 1, 5000 + last);
  EXPECT_FALSE(r.payload.has_value());
  EXPECT_TRUE(r.invalidated);
  // A re-store under the same fingerprint replaces the pair, and the
  // older key's later eviction leaves the newer pair alone.
  cache.store("normalize", 2, 5000 + last, "newer");
  for (uint64_t i = 0; i < kCapacity - 1; ++i)
    cache.store("parallelize", 9000 + i, 9000 + i, "filler");
  EXPECT_FALSE(cache.peek(1000 + last).has_value());  // evicted
  EXPECT_TRUE(cache.find("normalize", 3, 5000 + last).invalidated);
  EXPECT_LE(cache.fingerprint_entries(), kCapacity);
}

// ---------------------------------------------------------------------------
// End-to-end: incremental == cold
// ---------------------------------------------------------------------------

TEST(Incremental, WarmRecompileIsBitIdenticalForAllAppsAndConfigs) {
  for (const auto& app : suite::perfect_suite()) {
    for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Conventional,
                             InlineConfig::Annotation}) {
      incr::UnitCache cache(4096);
      PipelineOptions opts;
      opts.config = cfg;
      PipelineResult cold = driver::run_pipeline(app, opts);
      ASSERT_TRUE(cold.ok) << app.name;

      PipelineOptions iopts = opts;
      iopts.unit_cache = &cache;
      PipelineResult fill = driver::run_pipeline(app, iopts);
      PipelineResult warm = driver::run_pipeline(app, iopts);
      std::string what =
          app.name + std::string("/") + driver::config_name(cfg);
      expect_identical(fill, cold, what + " (fill)");
      expect_identical(warm, cold, what + " (warm)");
      // The fill run computes everything; the warm run computes nothing.
      EXPECT_EQ(fill.unit_hits, 0u) << what;
      EXPECT_GT(fill.unit_misses, 0u) << what;
      EXPECT_GT(warm.unit_hits, 0u) << what;
      EXPECT_EQ(warm.unit_misses, 0u) << what;
      // Both snapshotting boundaries resumed on the warm run.
      const pm::PassRecord* nrec = warm.timings.find("normalize");
      ASSERT_TRUE(nrec != nullptr) << what;
      EXPECT_GT(nrec->unit_hits, 0) << what;
      EXPECT_EQ(nrec->unit_misses, 0) << what;
    }
  }
}

TEST(Incremental, SeededEditsExactCountersAndIdenticalRuns) {
  auto app = shaped_app();
  struct Case {
    const char* unit;
    size_t invalidated_set;  // |invalidated_by_edit|, edited unit included
  };
  // The closure sizes proven exact in DepGraph.InvalidationSets...
  const Case cases[] = {{"LEAF", 2}, {"CDEF", 3}, {"HUB", 4}};
  for (const auto& c : cases) {
    incr::UnitCache cache(4096);
    PipelineOptions opts;  // config None: all six units survive to the end
    opts.unit_cache = &cache;
    PipelineResult fill = driver::run_pipeline(app, opts);
    ASSERT_TRUE(fill.ok);
    EXPECT_EQ(fill.unit_misses, 6u) << c.unit;

    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, c.unit, 31);
    ASSERT_NE(edited.source, app.source) << c.unit;

    PipelineResult incr_r = driver::run_pipeline(edited, opts);
    ASSERT_TRUE(incr_r.ok) << c.unit;
    // Exactly the dependence closure recompiles; of those, all but the
    // edited unit itself are misses with an unchanged own fingerprint.
    EXPECT_EQ(incr_r.unit_misses, c.invalidated_set) << c.unit;
    EXPECT_EQ(incr_r.unit_hits, 6u - c.invalidated_set) << c.unit;
    EXPECT_EQ(incr_r.unit_invalidated, c.invalidated_set - 1) << c.unit;
    // The normalize boundary shares the plan, so the same units resume.
    const pm::PassRecord* nrec = incr_r.timings.find("normalize");
    ASSERT_TRUE(nrec != nullptr) << c.unit;
    EXPECT_EQ(static_cast<size_t>(nrec->unit_hits), 6u - c.invalidated_set)
        << c.unit;
    EXPECT_EQ(static_cast<size_t>(nrec->unit_misses), c.invalidated_set)
        << c.unit;

    PipelineOptions cold_opts;
    PipelineResult cold = driver::run_pipeline(edited, cold_opts);
    ASSERT_TRUE(cold.ok) << c.unit;
    expect_identical(incr_r, cold, std::string("edit ") + c.unit);
    expect_identical_runs(*incr_r.program, *cold.program,
                          interp::Engine::Tree,
                          std::string("tree run, edit ") + c.unit);
    expect_identical_runs(*incr_r.program, *cold.program,
                          interp::Engine::Bytecode,
                          std::string("bytecode run, edit ") + c.unit);
  }
}

// An editor loop touching DYFESM's FORMP reuses exactly 9 of 12 units
// under directed dependence, round after round against one warm cache, at
// both snapshot boundaries; the bidirectional verification mode reuses
// only 1 of 12 (the COMMON-free CHOFAC). An edit of every unit reuses
// nothing. Every compile is bit-identical to a cold one.
TEST(Incremental, DyfesmFormpEditReusesNineOfTwelveUnits) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);

  incr::UnitCache directed_cache(4096);
  incr::UnitCache bidir_cache(4096);
  PipelineOptions dopts;
  dopts.unit_cache = &directed_cache;
  PipelineOptions bopts;
  bopts.unit_cache = &bidir_cache;
  bopts.bidirectional_common = true;

  PipelineResult dfill = driver::run_pipeline(*app, dopts);
  PipelineResult bfill = driver::run_pipeline(*app, bopts);
  ASSERT_TRUE(dfill.ok);
  ASSERT_TRUE(bfill.ok);
  EXPECT_EQ(dfill.unit_misses, 12u);

  // Restores at one snapshot boundary of a compile.
  auto restored = [](const PipelineResult& r, const char* boundary) {
    const pm::PassRecord* rec = r.timings.find(boundary);
    return rec ? rec->unit_hits : -1;
  };

  for (int salt : {17, 18, 19}) {
    std::string what = "DYFESM FORMP edit, salt " + std::to_string(salt);
    suite::BenchmarkApp edited = *app;
    edited.source = incr::mutate_unit(app->source, "FORMP", salt);
    ASSERT_NE(edited.source, app->source) << what;

    PipelineResult directed = driver::run_pipeline(edited, dopts);
    PipelineResult bidir = driver::run_pipeline(edited, bopts);
    ASSERT_TRUE(directed.ok) << what;
    ASSERT_TRUE(bidir.ok) << what;

    // Directed: only {FORMP, FSMP, DYFESM} recompile, at both boundaries.
    EXPECT_EQ(directed.unit_hits, 9u) << what;
    EXPECT_EQ(directed.unit_misses, 3u) << what;
    EXPECT_EQ(directed.unit_invalidated, 2u) << what;
    EXPECT_EQ(restored(directed, "normalize"), 9) << what;
    EXPECT_EQ(restored(directed, "parallelize"), 9) << what;
    // Bidirectional: the 1/12 reuse ceiling (CHOFAC shares no COMMON).
    EXPECT_EQ(bidir.unit_hits, 1u) << what;
    EXPECT_EQ(bidir.unit_misses, 11u) << what;

    PipelineResult cold = driver::run_pipeline(edited, PipelineOptions{});
    ASSERT_TRUE(cold.ok) << what;
    expect_identical(directed, cold, what + " (directed)");
    expect_identical(bidir, cold, what + " (bidirectional)");
    if (salt == 17)
      expect_identical_runs(*directed.program, *cold.program,
                            interp::Engine::Bytecode, what + " (run)");
  }

  // Every unit edited: no snapshot may be restored (no stale reuse).
  suite::BenchmarkApp all = *app;
  int salt = 5000;
  for (const auto& name : incr::source_unit_names(app->source))
    all.source = incr::mutate_unit(all.source, name, salt++);
  PipelineResult every = driver::run_pipeline(all, dopts);
  ASSERT_TRUE(every.ok);
  EXPECT_EQ(every.unit_hits, 0u);
  EXPECT_EQ(every.unit_misses, 12u);
  EXPECT_EQ(restored(every, "normalize"), 0);
  EXPECT_EQ(restored(every, "parallelize"), 0);
  PipelineResult cold = driver::run_pipeline(all, PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  expect_identical(every, cold, "DYFESM every-unit edit");
}

// Differential proof over the whole suite: directed and bidirectional
// dependence produce bit-identical results after any single-unit edit;
// directed never reuses less.
TEST(Incremental, DirectedAndBidirectionalModesAreBitIdentical) {
  std::mt19937 rng(20260809);
  for (const auto& app : suite::perfect_suite()) {
    std::vector<std::string> units = incr::source_unit_names(app.source);
    ASSERT_FALSE(units.empty()) << app.name;
    incr::UnitCache dcache(4096);
    incr::UnitCache bcache(4096);
    PipelineOptions dopts;
    dopts.unit_cache = &dcache;
    PipelineOptions bopts;
    bopts.unit_cache = &bcache;
    bopts.bidirectional_common = true;
    ASSERT_TRUE(driver::run_pipeline(app, dopts).ok) << app.name;
    ASSERT_TRUE(driver::run_pipeline(app, bopts).ok) << app.name;

    size_t pick = rng() % units.size();
    int salt = static_cast<int>(rng() % 100000);
    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, units[pick], salt);
    ASSERT_NE(edited.source, app.source) << app.name << " " << units[pick];

    PipelineResult directed = driver::run_pipeline(edited, dopts);
    PipelineResult bidir = driver::run_pipeline(edited, bopts);
    std::string what = app.name + std::string(" edit ") + units[pick];
    expect_identical(directed, bidir, what);
    EXPECT_GE(directed.unit_hits, bidir.unit_hits) << what;
  }
}

TEST(Incremental, RandomizedSingleUnitEditsStayBitIdentical) {
  // A fixed seed keeps the walk reproducible; the property under test is
  // that *any* single-unit edit leaves incremental == cold, with the cache
  // carried across edits the way an editor loop would.
  std::mt19937 rng(20260808);
  for (const char* name : {"DYFESM", "TRFD"}) {
    const suite::BenchmarkApp* app = suite::find_app(name);
    ASSERT_TRUE(app != nullptr) << name;
    std::vector<std::string> units = incr::source_unit_names(app->source);
    ASSERT_FALSE(units.empty()) << name;
    for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Annotation}) {
      incr::UnitCache cache(4096);
      PipelineOptions iopts;
      iopts.config = cfg;
      iopts.unit_cache = &cache;
      ASSERT_TRUE(driver::run_pipeline(*app, iopts).ok) << name;
      for (int iter = 0; iter < 4; ++iter) {
        size_t pick = rng() % units.size();
        int salt = static_cast<int>(rng() % 100000);
        suite::BenchmarkApp edited = *app;
        edited.source = incr::mutate_unit(app->source, units[pick], salt);
        ASSERT_NE(edited.source, app->source) << name << " " << units[pick];
        PipelineResult incr_r = driver::run_pipeline(edited, iopts);
        PipelineOptions cold_opts;
        cold_opts.config = cfg;
        PipelineResult cold = driver::run_pipeline(edited, cold_opts);
        expect_identical(incr_r, cold,
                         std::string(name) + "/" + driver::config_name(cfg) +
                             " edit " + units[pick]);
      }
    }
  }
}

// Flipping a dependence-test option invalidates only the parallelize
// boundary: the pipeline resumes from the cached normalize artifacts
// instead of recomputing the inline+normalize prefix. This is the
// pass-sequence scoping the per-boundary option hashes buy.
TEST(Incremental, NormalizeArtifactsSurviveParallelizerOptionChange) {
  auto app = shaped_app();
  incr::UnitCache cache(4096);
  PipelineOptions opts;
  opts.unit_cache = &cache;
  ASSERT_TRUE(driver::run_pipeline(app, opts).ok);

  PipelineOptions flipped = opts;
  flipped.par.use_banerjee = false;
  PipelineResult resumed = driver::run_pipeline(app, flipped);
  ASSERT_TRUE(resumed.ok);
  const pm::PassRecord* nrec = resumed.timings.find("normalize");
  ASSERT_TRUE(nrec != nullptr);
  EXPECT_EQ(nrec->unit_hits, 6);
  EXPECT_EQ(nrec->unit_misses, 0);
  // The parallelize boundary saw a changed option hash: every unit is a
  // miss classified as invalidated (its own fingerprint is unchanged).
  EXPECT_EQ(resumed.unit_hits, 0u);
  EXPECT_EQ(resumed.unit_misses, 6u);
  EXPECT_EQ(resumed.unit_invalidated, 6u);

  PipelineOptions cold_opts;
  cold_opts.par.use_banerjee = false;
  PipelineResult cold = driver::run_pipeline(app, cold_opts);
  expect_identical(resumed, cold, "banerjee flip");
}

TEST(Incremental, DiskTierServesAFreshProcess) {
  TempDir dir("e2e");
  auto app = shaped_app();
  PipelineResult cold = driver::run_pipeline(app, PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  {
    incr::UnitCache cache(4096, dir.path.string());
    PipelineOptions opts;
    opts.unit_cache = &cache;
    ASSERT_TRUE(driver::run_pipeline(app, opts).ok);
  }
  // A new cache over the same directory — the memory tier is empty, so
  // every unit at both boundaries must come back from disk.
  incr::UnitCache cache(4096, dir.path.string());
  PipelineOptions opts;
  opts.unit_cache = &cache;
  PipelineResult warm = driver::run_pipeline(app, opts);
  expect_identical(warm, cold, "disk-tier warm");
  EXPECT_EQ(warm.unit_hits, 6u);
  EXPECT_EQ(warm.unit_misses, 0u);
  EXPECT_EQ(warm.unit_disk_hits, 6u);
  auto by = cache.boundary_stats();
  EXPECT_EQ(by["normalize"].disk_hits, 6u);
  EXPECT_EQ(by["parallelize"].disk_hits, 6u);
  EXPECT_EQ(cache.stats().disk_hits, 12u);
}

// Corrupted disk payloads must never poison a compile: the pass-level
// restore rejects them and the unit recomputes (and re-stores).
TEST(Incremental, CorruptDiskPayloadsFallBackToRecompute) {
  TempDir dir("corrupt");
  auto app = shaped_app();
  PipelineResult cold = driver::run_pipeline(app, PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  {
    incr::UnitCache cache(4096, dir.path.string());
    PipelineOptions opts;
    opts.unit_cache = &cache;
    ASSERT_TRUE(driver::run_pipeline(app, opts).ok);
  }
  size_t corrupted = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    std::ofstream(e.path(), std::ios::trunc) << "APUNIT 999 not a payload";
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  incr::UnitCache cache(4096, dir.path.string());
  PipelineOptions opts;
  opts.unit_cache = &cache;
  PipelineResult warm = driver::run_pipeline(app, opts);
  ASSERT_TRUE(warm.ok);
  expect_identical(warm, cold, "corrupt disk tier");
  // Every probe found a payload, every restore rejected it.
  EXPECT_EQ(warm.unit_hits, 0u);
  EXPECT_EQ(warm.unit_misses, 6u);
}

}  // namespace
}  // namespace ap

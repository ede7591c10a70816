// Differential tests for the bytecode VM (interp/bytecode.h + interp/vm.h)
// against the reference tree-walking interpreter.
//
// The contract under test: for any program, Engine::Bytecode and
// Engine::Tree produce bit-identical RunResult fields (ok, stopped,
// stop_message, error, output, statements_executed, statements_in_parallel)
// and identical global scalar state. The bytecode-only counters
// (instructions_executed, bytecode_compile_ms) are excluded by design.
//
// Coverage: the whole mini-PERFECT suite through the full pipeline at 1 and
// 4 threads, plus targeted micro-programs for the paths where the two
// engines are easiest to drive apart — deferred constant-folding faults,
// the statement budget, bounds errors, privatization/reduction regions,
// recursion, element-base argument views, frames reused across calls,
// COMMON blocks first touched inside a region, and lane-summed counters.
// One timing check guards the VM's reason to exist: it must beat the tree
// engine on every suite application.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>

#include "driver/pipeline.h"
#include "fir/unparse.h"
#include "interp/bytecode.h"
#include "interp/interp.h"
#include "par/parallelizer.h"
#include "suite/suite.h"
#include "tests/test_util.h"

namespace ap::interp {
namespace {

using test::parse_ok;

RunResult run_engine(const fir::Program& prog, Engine e, int threads,
                     int64_t max_steps,
                     std::map<std::string, double>* scalars = nullptr) {
  InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.max_steps = max_steps;
  Interpreter it(prog, o);
  RunResult r = it.run();
  if (scalars) *scalars = it.globals().snapshot_scalars();
  return r;
}

// Run `prog` under both engines and require identical observable results.
// Returns the bytecode result for further assertions.
RunResult run_both(const fir::Program& prog, int threads = 1,
                   int64_t max_steps = 2'000'000'000,
                   const std::string& label = "") {
  std::map<std::string, double> tree_scalars, bc_scalars;
  RunResult t = run_engine(prog, Engine::Tree, threads, max_steps, &tree_scalars);
  RunResult b =
      run_engine(prog, Engine::Bytecode, threads, max_steps, &bc_scalars);
  EXPECT_EQ(t.ok, b.ok) << label << ": tree='" << t.error << "' bytecode='"
                        << b.error << "'";
  EXPECT_EQ(t.stopped, b.stopped) << label;
  EXPECT_EQ(t.stop_message, b.stop_message) << label;
  EXPECT_EQ(t.error, b.error) << label;
  EXPECT_EQ(t.output, b.output) << label;
  EXPECT_EQ(t.statements_executed, b.statements_executed) << label;
  EXPECT_EQ(t.statements_in_parallel, b.statements_in_parallel) << label;
  EXPECT_EQ(tree_scalars, bc_scalars) << label;
  // The tree engine never reports bytecode counters.
  EXPECT_EQ(t.instructions_executed, 0u) << label;
  EXPECT_EQ(t.bytecode_compile_ms, 0.0) << label;
  return b;
}

// ---------------------------------------------------------------------------
// Whole-suite differential: every app, full pipeline, both thread counts.
// ---------------------------------------------------------------------------

class VmSuiteDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VmSuiteDifferentialTest, EnginesAgreeAfterFullPipeline) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  for (driver::InlineConfig cfg :
       {driver::InlineConfig::None, driver::InlineConfig::Annotation}) {
    driver::PipelineOptions opts;
    opts.config = cfg;
    driver::PipelineResult r = driver::run_pipeline(*app, opts);
    ASSERT_TRUE(r.ok) << app->name << ": " << r.error;
    ASSERT_NE(r.program, nullptr);
    for (int threads : {1, 4}) {
      RunResult b = run_both(*r.program, threads, 2'000'000'000,
                             app->name + "/" + driver::config_name(cfg) +
                                 "/t" + std::to_string(threads));
      EXPECT_TRUE(b.ok) << app->name << ": " << b.error;
      EXPECT_GT(b.instructions_executed, 0u) << app->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, VmSuiteDifferentialTest,
    ::testing::Values("ADM", "ARC2D", "BDNA", "DYFESM", "FLO52Q", "MDG",
                      "MG3D", "OCEAN", "QCD", "SPEC77", "TRACK", "TRFD"),
    [](const ::testing::TestParamInfo<std::string>& i) { return i.param; });

// ---------------------------------------------------------------------------
// Engine selection and bytecode-only counters.
// ---------------------------------------------------------------------------

TEST(VmEngine, BytecodeIsTheDefault) {
  InterpOptions o;
  EXPECT_EQ(o.engine, Engine::Bytecode);
}

TEST(VmEngine, InstructionCounterAndCompileTimeReported) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S
      S = 0.0
      DO I = 1, 100
        S = S + I
      ENDDO
      END
)");
  RunResult r = run_engine(*p, Engine::Bytecode, 1, 1'000'000);
  ASSERT_TRUE(r.ok) << r.error;
  // At least one instruction per executed statement.
  EXPECT_GE(r.instructions_executed, r.statements_executed);
  EXPECT_GE(r.bytecode_compile_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Speed: the VM must be strictly faster than the tree engine on every app.
// ---------------------------------------------------------------------------

// Best-of-3 serial wall time of one engine over `prog` (the minimum is the
// noise-robust estimator for runs of a few milliseconds).
double best_serial_ms(const fir::Program& prog, Engine e) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    InterpOptions o;
    o.engine = e;
    o.enable_parallel = false;
    Interpreter it(prog, o);
    auto t0 = clock::now();
    RunResult r = it.run();
    double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    EXPECT_TRUE(r.ok) << r.error;
    best = std::min(best, ms);
  }
  return best;
}

// Each app's annotation-based program runs serially on both engines. In
// an optimized build on a shared 4-core VM the smallest per-app margin
// was 1.9-3.7x across runs, so a failure means a real regression, not
// noise. Sanitizers change the relative costs of the two engines, so the
// check is skipped under them.
TEST(VmSpeed, BytecodeNotSlowerThanTreeOnAnyApp) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "engine timings are not comparable under a sanitizer";
#endif
  for (const auto& app : suite::perfect_suite()) {
    driver::PipelineOptions opts;
    opts.config = driver::InlineConfig::Annotation;
    driver::PipelineResult r = driver::run_pipeline(app, opts);
    ASSERT_TRUE(r.ok) << app.name << ": " << r.error;
    double tree_ms = best_serial_ms(*r.program, Engine::Tree);
    double vm_ms = best_serial_ms(*r.program, Engine::Bytecode);
    EXPECT_LT(vm_ms, tree_ms) << app.name << ": bytecode " << vm_ms
                              << " ms vs tree " << tree_ms << " ms";
  }
}

// ---------------------------------------------------------------------------
// Micro-programs aimed at engine-divergence risks.
// ---------------------------------------------------------------------------

TEST(VmDifferential, ConstantFoldFaultIsDeferredToRuntime) {
  // 1/0 is a compile-time-visible fault; folding must not turn it into a
  // compile failure nor swallow it — both engines fault at run time with
  // the same message. (Real division by zero is IEEE inf, not a fault.)
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ K
      K = 1 / 0
      END
)");
  RunResult b = run_both(*p);
  EXPECT_FALSE(b.ok);
  EXPECT_NE(b.error.find("integer division by zero"), std::string::npos)
      << b.error;
}

TEST(VmDifferential, UnreachableFaultingConstantIsHarmless) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ R
      R = 1.0
      IF (R .GT. 2.0) THEN
        R = 1 / 0
      ENDIF
      END
)");
  RunResult b = run_both(*p);
  EXPECT_TRUE(b.ok) << b.error;
}

TEST(VmDifferential, StatementBudgetExhaustsIdentically) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S
      S = 0.0
      DO I = 1, 1000000
        S = S + 1.0
      ENDDO
      END
)");
  RunResult b = run_both(*p, 1, /*max_steps=*/500);
  EXPECT_FALSE(b.ok);
  EXPECT_NE(b.error.find("statement budget exhausted"), std::string::npos)
      << b.error;
}

TEST(VmDifferential, SubscriptOutOfBoundsMessageMatches) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(10)
      DO I = 1, 20
        A(I) = I
      ENDDO
      END
)");
  RunResult b = run_both(*p);
  EXPECT_FALSE(b.ok);
  EXPECT_NE(b.error.find("subscript out of bounds"), std::string::npos)
      << b.error;
}

TEST(VmDifferential, StopMessagePropagates) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S
      S = 3.0
      IF (S .GT. 2.0) THEN
        STOP 'TOO BIG'
      ENDIF
      END
)");
  RunResult b = run_both(*p);
  EXPECT_TRUE(b.ok);
  EXPECT_TRUE(b.stopped);
  EXPECT_EQ(b.stop_message, "TOO BIG");
}

TEST(VmDifferential, WriteFormattingMatches) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(3)
      DO I = 1, 3
        A(I) = I * 1.5
      ENDDO
      WRITE(*,*) 'VALS', A(1), A(2), A(3), 7
      END
)");
  RunResult b = run_both(*p);
  EXPECT_TRUE(b.ok) << b.error;
  EXPECT_FALSE(b.output.empty());
}

TEST(VmDifferential, ElementBaseArgumentViews) {
  // CALL with A(5) as the actual: the callee's assumed-size formal windows
  // the store starting at offset 4 in both engines.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(10), S
      DO I = 1, 10
        A(I) = I
      ENDDO
      CALL SHIFT(A(5))
      S = A(5) + A(6)
      END
      SUBROUTINE SHIFT(X)
      DOUBLE PRECISION X(*)
      X(1) = X(1) * 10.0
      X(2) = X(2) + 0.5
      END
)");
  std::map<std::string, double> scalars;
  RunResult b = run_both(*p);
  EXPECT_TRUE(b.ok) << b.error;
  run_engine(*p, Engine::Bytecode, 1, 1'000'000, &scalars);
  EXPECT_DOUBLE_EQ(scalars.at("C/S"), 50.0 + 6.5);
}

TEST(VmDifferential, RecursionDepth) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S
      S = 0.0
      CALL REC(6)
      END
      SUBROUTINE REC(N)
      INTEGER N
      COMMON /C/ S
      S = S + N
      IF (N .GT. 1) THEN
        CALL REC(N - 1)
      ENDIF
      END
)");
  std::map<std::string, double> scalars;
  RunResult b = run_both(*p);
  EXPECT_TRUE(b.ok) << b.error;
  run_engine(*p, Engine::Bytecode, 1, 1'000'000, &scalars);
  EXPECT_DOUBLE_EQ(scalars.at("C/S"), 21.0);
}

TEST(VmDifferential, LocalsAreFreshOnEveryCall) {
  // The VM reuses one frame per call depth. Each subroutine reads a local
  // scalar and a local array element before writing them, so a value left
  // over from an earlier call, or clobbered by a deeper recursive call,
  // would show in the sums: F is called repeatedly, REC recursively (its
  // locals must survive the deeper calls), G from inside a 4-lane region
  // (twice per lane).
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S, Q, RS, A(8), R(5)
      S = 0.0
      DO K = 1, 5
        CALL F(K)
      ENDDO
      CALL REC(4)
      DO I = 1, 8
        CALL G(I)
      ENDDO
      Q = A(1) + A(2) + A(3) + A(4) + A(5) + A(6) + A(7) + A(8)
      RS = R(1) + R(2) + R(3) + R(4) + R(5)
      WRITE(*,*) S, Q, RS
      END
      SUBROUTINE F(K)
      COMMON /C/ S, Q, RS, A(8), R(5)
      REAL L(3)
      R(K) = X + L(2)
      X = K * 10.0
      L(2) = K * 100.0
      END
      SUBROUTINE REC(N)
      COMMON /C/ S, Q, RS, A(8), R(5)
      REAL W(2)
      S = S + Y + W(1)
      Y = N
      W(1) = N * 2.0
      IF (N .GT. 1) THEN
        CALL REC(N - 1)
      ENDIF
      S = S + Y + W(1)
      END
      SUBROUTINE G(I)
      COMMON /C/ S, Q, RS, A(8), R(5)
      REAL V(2)
      A(I) = Z + V(1) + I
      Z = I
      V(1) = I * 3.0
      END
)");
  fir::Stmt* loop = test::find_loop(*p->units[0], "I");
  ASSERT_NE(loop, nullptr);
  for (bool parallel : {false, true}) {
    loop->omp.parallel = parallel;
    int threads = parallel ? 4 : 1;
    RunResult b = run_both(*p, threads, 2'000'000'000,
                           parallel ? "region" : "serial");
    ASSERT_TRUE(b.ok) << b.error;
    if (parallel) {
      EXPECT_GT(b.statements_in_parallel, 0u);
    }
    std::map<std::string, double> scalars;
    run_engine(*p, Engine::Bytecode, threads, 1'000'000, &scalars);
    EXPECT_DOUBLE_EQ(scalars.at("C/S"), 30.0);  // sum of 3N, N = 1..4
    EXPECT_DOUBLE_EQ(scalars.at("C/Q"), 36.0);  // A(I) = I
    EXPECT_DOUBLE_EQ(scalars.at("C/RS"), 0.0);
  }
}

// Literals live in reserved registers (bc::kConstRegs per unit), loaded
// when a frame is bound to the unit; the tests below aim at the ways a
// shared constant register could leak a value.

// The instructions of `op` in every code stream of `cu`.
int count_op(const bc::CompiledUnit& cu, bc::Op op) {
  int n = 0;
  for (const auto* code : {&cu.prologue, &cu.code, &cu.lane_code})
    for (const bc::Insn& i : *code) n += i.op == op;
  return n;
}

TEST(VmDifferential, IntegerAndRealLiteralsStayDistinct) {
  // 1 and 1.0 have the same bits but not the same tag, so they must not
  // share a register: J + 1 stays INTEGER (and J + 1 / 2 truncates), while
  // J + 1.0 is REAL.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A, B, C, D, E
      J = 4
      A = (J + 1) / 2
      B = (J + 1.0) / 2
      C = J * 1 + J * 1.0
      D = -0.0
      E = 0.0
      WRITE(*,*) (J + 1) / 2, (J + 1.0) / 2, J * 1, J * 1.0, 1 / D, 1 / E
      END
)");
  RunResult b = run_both(*p);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.output, "2 2.500000 4 4.000000 -inf inf\n");
  bc::Module m = bc::compile(*p);
  const bc::CompiledUnit& cu = m.units[0];
  int ints = 0, reals = 0;
  for (const RtVal& v : cu.const_regs)
    if (v.v == 1.0) (v.is_int ? ints : reals)++;
  EXPECT_EQ(ints, 1);
  EXPECT_EQ(reals, 1);
}

TEST(VmDifferential, CalleeWritingAByValueLiteralLeavesTheConstant) {
  // A literal actual is passed by value: the callee's formal is a cell of
  // its own, so writing it must not reach the caller's constant register,
  // on the first call or on the reused frame of the next.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S, M
      S = 0.0
      DO K = 1, 3
        CALL SET(5, 2.5)
        S = S + 5 + 2.5 + M
        CALL SET(5, 2.5)
      ENDDO
      WRITE(*,*) S, M, 5 + K, 2.5 * K
      END
      SUBROUTINE SET(N, X)
      COMMON /C/ S, M
      M = M + N
      N = 99
      X = -1.0
      END
)");
  RunResult b = run_both(*p);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.output, "67.500000 30 8 7.500000\n");
}

TEST(VmDifferential, LiteralsPastTheReserveFallBackToLoadConst) {
  // One unit with more distinct literals than the reserve: the first
  // kConstRegs get registers, the rest are loaded where they are used.
  const int n = bc::kConstRegs + 9;
  std::string src = "      PROGRAM T\n      COMMON /C/ S\n      S = 0.0\n";
  for (int i = 1; i <= n; ++i) {
    src += "      S = S + ";
    src += std::to_string(i);
    src += ".25\n";
  }
  src += "      DO I = 1, 3\n        S = S + I * 1.25\n      ENDDO\n";
  src += "      WRITE(*,*) S\n      END\n";
  auto p = parse_ok(src);
  RunResult b = run_both(*p);
  ASSERT_TRUE(b.ok) << b.error;
  bc::Module m = bc::compile(*p);
  const bc::CompiledUnit& cu = m.units[0];
  EXPECT_EQ(cu.const_regs.size(), static_cast<size_t>(bc::kConstRegs));
  // 0.0 and the first kConstRegs - 1 of the n sums' literals filled the
  // reserve, so each later literal needs a LoadConst, and so do the DO
  // loop's counter, bound and step.
  EXPECT_EQ(count_op(cu, bc::Op::LoadConst), n - (bc::kConstRegs - 1) + 3);
  EXPECT_GE(cu.num_regs, bc::kConstRegs);
}

TEST(VmDifferential, OnlyRunningValuesLoadConstants) {
  // Within the reserve, a literal costs no instruction: LoadConst is left
  // for a DO counter's start and a MIN/MAX accumulator's seed.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ S
      S = 2.0 * S + 3.0
      IF (S .GT. 1.0) S = S - 1.0
      DO I = 1, 10, 2
        S = S + MAX(1.5, S * 0.5)
      ENDDO
      CALL SUB(S, 4.0)
      END
      SUBROUTINE SUB(X, Y)
      X = X + Y * 2.0
      END
)");
  RunResult b = run_both(*p);
  ASSERT_TRUE(b.ok) << b.error;
  bc::Module m = bc::compile(*p);
  EXPECT_EQ(count_op(m.units[0], bc::Op::LoadConst), 2);
  EXPECT_EQ(count_op(m.units[1], bc::Op::LoadConst), 0);
}

// ---------------------------------------------------------------------------
// Parallel regions: privatization, reductions, nested serialization.
// ---------------------------------------------------------------------------

// Parse, parallelize, then require both engines to agree at `threads`.
RunResult run_both_parallelized(const std::string& src, int threads) {
  auto p = parse_ok(src);
  DiagnosticEngine d;
  par::ParallelizeOptions po;
  par::parallelize(*p, po, d);
  return run_both(*p, threads, 2'000'000'000, fir::unparse(*p));
}

TEST(VmParallel, ReductionLoopMatchesAcrossEngines) {
  RunResult b = run_both_parallelized(R"(
      PROGRAM T
      COMMON /C/ A(1000), S, P
      DO I = 1, 1000
        A(I) = I * 0.001
      ENDDO
      S = 0.0
      DO I = 1, 1000
        S = S + A(I)
      ENDDO
      P = 1000.0
      DO I = 1, 1000
        P = MIN(P, A(I))
      ENDDO
      WRITE(*,*) 'S', S, 'P', P
      END
)",
                                      4);
  EXPECT_TRUE(b.ok) << b.error;
  EXPECT_GT(b.statements_in_parallel, 0u);
}

TEST(VmParallel, PrivateTempAndLastIterationCopyOut) {
  RunResult b = run_both_parallelized(R"(
      PROGRAM T
      COMMON /C/ A(500), S
      DO I = 1, 500
        T = I * 2.0
        A(I) = T + 1.0
      ENDDO
      S = T + A(250)
      WRITE(*,*) S
      END
)",
                                      4);
  EXPECT_TRUE(b.ok) << b.error;
}

TEST(VmParallel, DoVariableExitValueMatches) {
  RunResult b = run_both_parallelized(R"(
      PROGRAM T
      COMMON /C/ A(100), S
      DO I = 1, 100
        A(I) = I * 1.0
      ENDDO
      S = I * 1.0
      WRITE(*,*) S
      END
)",
                                      4);
  EXPECT_TRUE(b.ok) << b.error;
}

TEST(VmParallel, SingleThreadPoolStillChunksIdentically) {
  RunResult b = run_both_parallelized(R"(
      PROGRAM T
      COMMON /C/ A(64), S
      DO I = 1, 64
        A(I) = I * 0.5
      ENDDO
      S = 0.0
      DO I = 1, 64
        S = S + A(I)
      ENDDO
      WRITE(*,*) S
      END
)",
                                      1);
  EXPECT_TRUE(b.ok) << b.error;
}

TEST(VmParallel, LaneStateDoesNotLeakBetweenRegions) {
  // Two different PARALLEL DOs alternate 2000 times inside a serial loop,
  // so the VM's reused per-lane state serves thousands of regions of two
  // shapes. The first privatizes scalars and arrays, COMMON ones included,
  // and a CALL in its body reaches the private COMMON copies through the
  // overrides. The second has a REDUCTION and a private scalar at the
  // first private's slot position, and its CALL must see the SHARED
  // COMMON values again. Any stale cell, override, array copy or partial
  // from the previous region would make the engines disagree.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(5), B(4), W(3), S, Q
      REAL V(3)
      S = 0.0
      DO K = 1, 2000
        DO I = 1, 5
          T = I + K * 0.5
          Q = T * 2.0
          V(1) = T
          V(2) = T + 1.0
          V(3) = Q
          W(1) = V(1) + V(3)
          W(2) = W(1) * 0.5
          W(3) = V(2)
          CALL UPD(I)
          A(I) = W(1) + W(2) + W(3) + V(2) + Q
        ENDDO
        R = 0.0
        DO J = 1, 4
          X = A(J) + J
          CALL ADDW(J, X)
          R = R + B(J) * 0.25 + A(J + 1)
        ENDDO
        S = S + R * 1.0E-3 + T + Q + W(2) + V(1)
      ENDDO
      WRITE(*,*) S, T, Q, R, X, W(1), W(2), W(3), V(1), V(2), V(3)
      END
      SUBROUTINE UPD(I)
      COMMON /C/ A(5), B(4), W(3), S, Q
      W(3) = W(3) + I * Q
      Q = Q + 1.0
      END
      SUBROUTINE ADDW(J, X)
      COMMON /C/ A(5), B(4), W(3), S, Q
      B(J) = X + W(3) + Q
      END
)");
  fir::ProgramUnit& main = *p->units[0];
  fir::Stmt* priv = test::find_loop(main, "I");
  fir::Stmt* red = test::find_loop(main, "J");
  ASSERT_NE(priv, nullptr);
  ASSERT_NE(red, nullptr);
  priv->omp.parallel = true;
  priv->omp.privates = {"T", "Q", "V", "W"};
  red->omp.parallel = true;
  red->omp.privates = {"X"};
  red->omp.reductions.push_back({"+", "R"});

  RunResult b = run_both(*p, 4, 2'000'000'000, fir::unparse(*p));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_GT(b.statements_in_parallel, 0u);
  EXPECT_LT(b.statements_in_parallel, b.statements_executed);
}

TEST(VmParallel, CommonFirstTouchedInsideRegion) {
  // SUB declares COMMON /D/, which the main program lacks, so the block is
  // created on first touch by whichever lanes call SUB first, concurrently.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(64)
      DO I = 1, 64
        CALL SUB(I)
      ENDDO
      WRITE(*,*) A(1), A(32), A(64)
      END
      SUBROUTINE SUB(I)
      COMMON /C/ A(64)
      COMMON /D/ Z, ZA(4)
      A(I) = I + Z + ZA(1)
      END
)");
  fir::Stmt* loop = test::find_loop(*p->units[0], "I");
  ASSERT_NE(loop, nullptr);
  loop->omp.parallel = true;
  for (int rep = 0; rep < 10; ++rep) {
    RunResult b = run_both(*p, 4, 2'000'000'000, "rep " + std::to_string(rep));
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_GT(b.statements_in_parallel, 0u);
  }
  std::map<std::string, double> scalars;
  run_engine(*p, Engine::Bytecode, 4, 1'000'000, &scalars);
  EXPECT_EQ(scalars.count("D/Z"), 1u);
}

TEST(VmParallel, LaneCountersAreExactAtEveryLaneCount) {
  // Lanes count their own instructions and statements, summed after each
  // join. Chunking changes which lane runs an iteration, never what runs,
  // so the totals may not depend on the lane count.
  for (const char* name : {"DYFESM", "QCD", "SPEC77"}) {
    const auto* app = suite::find_app(name);
    ASSERT_NE(app, nullptr);
    for (driver::InlineConfig cfg :
         {driver::InlineConfig::None, driver::InlineConfig::Annotation}) {
      driver::PipelineOptions opts;
      opts.config = cfg;
      driver::PipelineResult r = driver::run_pipeline(*app, opts);
      ASSERT_TRUE(r.ok) << name << ": " << r.error;
      std::string label = std::string(name) + "/" + driver::config_name(cfg);
      RunResult two = run_engine(*r.program, Engine::Bytecode, 2, 2'000'000'000);
      ASSERT_TRUE(two.ok) << label << ": " << two.error;
      EXPECT_GT(two.statements_in_parallel, 0u) << label;
      for (int threads : {3, 4}) {
        RunResult b =
            run_engine(*r.program, Engine::Bytecode, threads, 2'000'000'000);
        ASSERT_TRUE(b.ok) << label << ": " << b.error;
        EXPECT_EQ(b.instructions_executed, two.instructions_executed)
            << label << " t" << threads;
        EXPECT_EQ(b.statements_in_parallel, two.statements_in_parallel)
            << label << " t" << threads;
        EXPECT_EQ(b.statements_executed, two.statements_executed)
            << label << " t" << threads;
        EXPECT_EQ(b.output, two.output) << label << " t" << threads;
      }
    }
  }
}

TEST(VmParallel, AlternatingUnitsOnOneLaneSeeTheirOwnConstants) {
  // Regions of two units alternate, so every lane runs each unit's lane
  // body in turn. Both units' first literals sit in the same registers, so
  // a lane that kept the other unit's constants would compute with them.
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /C/ A(12), B(12)
      DO K = 1, 300
        CALL FA(K)
        CALL FB(K)
      ENDDO
      WRITE(*,*) A(1), A(6), A(12), B(1), B(7), B(12)
      END
      SUBROUTINE FA(K)
      COMMON /C/ A(12), B(12)
      DO I = 1, 12
        A(I) = A(I) * 0.5 + I * 2.0 + 3
      ENDDO
      END
      SUBROUTINE FB(K)
      COMMON /C/ A(12), B(12)
      DO I = 1, 12
        B(I) = B(I) * 0.25 + I * 7.0 + 11 + A(I)
      ENDDO
      END
)");
  for (int u : {1, 2}) {
    fir::Stmt* loop = test::find_loop(*p->units[static_cast<size_t>(u)], "I");
    ASSERT_NE(loop, nullptr);
    loop->omp.parallel = true;
  }
  // Both units keep their loop's bound and step in registers 0 and 1 and
  // their first factor in register 2.
  bc::Module m = bc::compile(*p);
  ASSERT_GE(m.units[1].const_regs.size(), 3u);
  ASSERT_GE(m.units[2].const_regs.size(), 3u);
  EXPECT_EQ(m.units[1].const_regs[2].v, 0.5);
  EXPECT_EQ(m.units[2].const_regs[2].v, 0.25);
  for (int threads : {2, 3, 4}) {
    std::string label = "t";
    label += std::to_string(threads);
    RunResult b = run_both(*p, threads, 2'000'000'000, label);
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_GT(b.statements_in_parallel, 0u);
  }
}

}  // namespace
}  // namespace ap::interp

// Bytecode IR for the F77-subset interpreter (DESIGN.md §8).
//
// The tree-walker in interp.cpp resolves every name through a
// std::map<std::string,...> on every reference of every iteration. This IR
// removes that cost once and for all: a one-pass compiler lowers each
// ProgramUnit to a flat register program in which
//
//   * scalars and arrays are integer SLOTS into per-frame tables (names are
//     resolved exactly once, at compile time),
//   * COMMON membership becomes an integer key id into a module-wide key
//     table, so per-thread privatization overrides are slot-indirection
//     vectors instead of string-keyed maps,
//   * array accesses carry precompiled descriptors (constant subscripts are
//     immediates, column-major strides live in the frame's array record),
//   * constant subexpressions are folded at compile time using the SAME
//     helpers the executor runs, so folding can never change a result,
//   * every OMP-parallel loop body is compiled a second time, as a lane
//     body, with its PRIVATE, REDUCTION and loop-variable references
//     redirected to a lane's own cells, so entering a region costs
//     O(privates), not a copy of the encountering frame,
//   * control flow is explicit jumps — no recursion in the executor.
//
// Semantics must mirror interp.cpp bit-for-bit: every runtime error message,
// the statement-budget charge points, the OpenMP privatization/copy-out/
// reduction rules and the statement counters are reproduced exactly (the
// whole existing interpreter test suite runs on this engine by default, and
// tests/interp_vm_test.cpp diffs the two engines on the entire suite).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fir/ast.h"
#include "interp/storage.h"

namespace ap::interp::bc {

// Thrown by the executor (and by the compile-time folder, where a throw
// simply cancels the fold and defers the operation to runtime).
struct RtError {
  std::string message;
};
struct RtStop {
  std::string message;
};

// ---------------------------------------------------------------------------
// Shared runtime operations
// ---------------------------------------------------------------------------
// One definition used by both the constant folder and the executor: folding
// a subexpression at compile time is guaranteed to produce the value the
// tree-walker would have produced at runtime (interp.cpp eval_binary /
// eval_intrinsic are the reference).

inline RtVal rt_neg(RtVal v) { return RtVal{-v.v, v.is_int}; }
inline RtVal rt_not(RtVal v) { return RtVal::logical(!v.truthy()); }
inline RtVal rt_add(RtVal l, RtVal r) { return RtVal{l.v + r.v, l.is_int && r.is_int}; }
inline RtVal rt_sub(RtVal l, RtVal r) { return RtVal{l.v - r.v, l.is_int && r.is_int}; }
inline RtVal rt_mul(RtVal l, RtVal r) { return RtVal{l.v * r.v, l.is_int && r.is_int}; }

inline RtVal rt_div(RtVal l, RtVal r) {
  if (l.is_int && r.is_int) {
    int64_t d = r.as_int();
    if (d == 0) throw RtError{"integer division by zero"};
    return RtVal::integer(l.as_int() / d);
  }
  return RtVal::real(l.v / r.v);
}

inline RtVal rt_pow(RtVal l, RtVal r) {
  if (l.is_int && r.is_int && r.as_int() >= 0) {
    int64_t b = l.as_int(), ex = r.as_int(), out = 1;
    for (int64_t i = 0; i < ex; ++i) out *= b;
    return RtVal::integer(out);
  }
  return RtVal::real(std::pow(l.v, r.v));
}

inline RtVal rt_eq(RtVal l, RtVal r) { return RtVal::logical(l.v == r.v); }
inline RtVal rt_ne(RtVal l, RtVal r) { return RtVal::logical(l.v != r.v); }
inline RtVal rt_lt(RtVal l, RtVal r) { return RtVal::logical(l.v < r.v); }
inline RtVal rt_le(RtVal l, RtVal r) { return RtVal::logical(l.v <= r.v); }
inline RtVal rt_gt(RtVal l, RtVal r) { return RtVal::logical(l.v > r.v); }
inline RtVal rt_ge(RtVal l, RtVal r) { return RtVal::logical(l.v >= r.v); }

inline RtVal rt_mod(RtVal a, RtVal b) {
  if (a.is_int && b.is_int) {
    int64_t d = b.as_int();
    if (d == 0) throw RtError{"MOD by zero"};
    return RtVal::integer(a.as_int() % d);
  }
  return RtVal::real(std::fmod(a.v, b.v));
}

inline RtVal rt_abs(RtVal a) { return RtVal{std::fabs(a.v), a.is_int}; }
inline RtVal rt_iabs(RtVal a) { return RtVal::integer(std::llabs(a.as_int())); }
inline RtVal rt_sqrt(RtVal a) { return RtVal::real(std::sqrt(a.v)); }
inline RtVal rt_exp(RtVal a) { return RtVal::real(std::exp(a.v)); }
inline RtVal rt_log(RtVal a) { return RtVal::real(std::log(a.v)); }
inline RtVal rt_sin(RtVal a) { return RtVal::real(std::sin(a.v)); }
inline RtVal rt_cos(RtVal a) { return RtVal::real(std::cos(a.v)); }
inline RtVal rt_tan(RtVal a) { return RtVal::real(std::tan(a.v)); }
inline RtVal rt_toreal(RtVal a) { return RtVal::real(a.v); }
inline RtVal rt_toint(RtVal a) { return RtVal::integer(static_cast<int64_t>(a.v)); }
inline RtVal rt_nint(RtVal a) { return RtVal::integer(std::llround(a.v)); }

inline RtVal rt_sign(RtVal a, RtVal b) {
  double m = std::fabs(a.v);
  return RtVal{b.v >= 0 ? m : -m, a.is_int && b.is_int};
}

// min/max keep the FIRST value on ties, like the tree-walker's fold.
inline RtVal rt_min_step(RtVal best, RtVal v) { return v.v < best.v ? v : best; }
inline RtVal rt_max_step(RtVal best, RtVal v) { return v.v > best.v ? v : best; }

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  Charge,       // statement boundary: decrement the step budget
  Move,         // r[a] = r[b]
  LoadConst,    // r[a] = consts[d]
  LoadBool,     // r[a] = logical(d != 0)
  LoadScalar,   // r[a] = {*frame.scalar[d], frame.scalar_int[d]}
  StoreScalar,  // *frame.scalar[d] = r[a], truncated when the slot is INTEGER
  StoreRaw,     // *frame.scalar[d] = r[a].v verbatim (DO variable, PARAMETER)
  LoadElem,     // r[a] = array element through accesses[d] (bounds-checked)
  StoreElem,    // array element through accesses[d] = r[a], truncated per type
  Addr,         // r[a] = checked linear offset of accesses[d] (CALL binding)
  Neg, NotOp,                        // r[a] = op r[b]
  Add, Sub, Mul, Div, PowOp,         // r[a] = r[b] op r[c]
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  Bool,         // r[a] = logical(truthy(r[b])) — short-circuit tails
  MinStep, MaxStep,                  // r[a] = rt_min/max_step(r[a], r[b])
  ModOp, SignOp,                     // r[a] = op(r[b], r[c])
  AbsOp, IntAbs, Sqrt, ExpOp, LogOp, Sin, Cos, Tan, ToReal, ToInt, Nint,
  Jump,         // pc = d
  JumpIfFalse,  // if !truthy(r[a]) pc = d
  JumpIfTrue,   // if truthy(r[a]) pc = d
  CheckStep,    // error "zero DO step" when r[a] == 0
  LoopTest,     // i=r[a] hi=r[b] step=r[c]: fall through while in range, else pc=d
  LoopNext,     // r[a].v += r[c].v; pc = d (back to LoopTest)
  ParDo,        // lo=r[a] hi=r[b] step=r[c], pardos[d]; runs the region in
                // parallel when eligible and jumps to its exit, else falls
                // through to the serial loop
  MakeArray,    // create/bind the frame record of array slot d (prologue)
  Reshape,      // re-evaluate formal-array dims of slot d (prologue, CALL)
  Call,         // calls[d]
  Write,        // writes[d]
  Stop,         // throw RtStop{strings[d]}
  Error,        // throw RtError{strings[d]}
  ReturnInDo,   // RETURN inside a DO loop; d = body_start of the enclosing
                // loop (in a lane body, lane_start for the parallel loop
                // itself), c = 1 when that loop is the OMP-parallel candidate
  Ret,          // return from the unit
  // Lane bodies only (CompiledUnit::lane_code): the same operations on the
  // running lane's private cells and private array records.
  LoadPriv,       // r[a] = {lane.cells[d], lane.cell_int[d]}
  StorePriv,      // lane.cells[d] = r[a], truncated when the cell is INTEGER
  StoreRawPriv,   // lane.cells[d] = r[a].v verbatim (nested DO variable)
  LoadPrivElem,   // LoadElem through private array b
  StorePrivElem,  // StoreElem through private array b
  AddrPriv,       // Addr through private array b
};

struct Insn {
  Op op;
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
  int32_t d = 0;
};

inline constexpr int kMaxRank = 7;

// One subscript: either a register or a compile-time constant (reg < 0).
struct SubRef {
  int32_t reg = -1;
  int64_t cst = 0;
};

// Precompiled array access: slot + per-dimension subscripts. Strides and
// bounds live in the frame's per-slot array record (they can depend on
// adjustable dims, so they are frame state, not module state).
struct AccessDesc {
  int32_t array_slot = 0;
  int32_t rank = 0;
  std::array<SubRef, kMaxRank> subs{};
};

// ---------------------------------------------------------------------------
// Slot tables
// ---------------------------------------------------------------------------

enum class ScalarKind : uint8_t { Local, Param, Formal, Common };

struct ScalarSlot {
  std::string name;
  ScalarKind kind = ScalarKind::Local;
  bool is_int = false;      // declared/implicit type; formal slots get the
                            // caller-side tag at bind time (like ScalarRef)
  int32_t formal_index = -1;  // Formal: position in unit.params
  int32_t common_key = -1;    // Common: module key id
};

enum class ArrayKind : uint8_t { Local, Formal, Common };

// One declared dimension; lo/hi read a prologue register unless constant.
struct DimSpec {
  bool has_hi = true;  // false => assumed size '*' (extent -1)
  SubRef lo{-1, 1};
  SubRef hi{-1, 0};
};

struct ArraySlot {
  std::string name;
  ArrayKind kind = ArrayKind::Local;
  fir::Type type = fir::Type::Real;
  bool is_int = false;
  int32_t formal_index = -1;
  int32_t common_key = -1;
  std::vector<DimSpec> dims;
};

// ---------------------------------------------------------------------------
// Statement plans
// ---------------------------------------------------------------------------

struct WriteItem {
  int32_t reg = -1;  // value register, or
  int32_t str = -1;  // string-pool index for a literal
};
struct WritePlan {
  std::vector<WriteItem> items;
};

enum class ArgKind : uint8_t {
  ScalarPtr,   // caller scalar slot, by reference
  ScalarElem,  // caller array element: slot + Addr register
  ScalarValue, // evaluated expression register, by value
  ArrayWhole,  // caller array slot, whole view
  ArrayElem,   // caller array slot with element base: slot + Addr register
};
struct CallArg {
  ArgKind kind;
  int32_t slot = -1;
  int32_t reg = -1;
  bool priv = false;  // lane bodies: slot is a private cell / private array
};
struct CallPlan {
  int32_t callee = -1;  // unit index
  std::vector<CallArg> args;
};

enum class RedOp : uint8_t { Sum, Prod, Min, Max };

// A lane gets one cell per private scalar, one per reduction and one for
// the loop variable, in that order, and one array record per private
// array. A slot named twice (say PRIVATE and REDUCTION) is read and written
// by the lane body through the last of its cells, its `live` cell.
struct PrivateSpec {
  bool is_array = false;
  int32_t slot = -1;
  int32_t common_key = -1;  // -1 when not COMMON
  int32_t cell = -1;        // own cell, or own private array index
  int32_t live = -1;        // scalars: the lane body's cell for `slot`
};
struct ReductionSpec {
  RedOp op;
  int32_t slot = -1;
  int32_t cell = -1;
  int32_t live = -1;
};

struct ParDoPlan {
  // [lane_start, lane_end) of CompiledUnit::lane_code: the loop body as
  // each lane runs it.
  int32_t lane_start = 0;
  int32_t lane_end = 0;
  int32_t exit_pc = 0;  // in CompiledUnit::code
  int32_t iv_slot = -1;
  int32_t iv_cell = -1;
  int32_t num_cells = 0;
  int32_t num_arrays = 0;
  std::vector<PrivateSpec> privates;    // in OMP clause order
  std::vector<ReductionSpec> reductions;
};

// ---------------------------------------------------------------------------
// Compiled unit / module
// ---------------------------------------------------------------------------

struct CompiledUnit {
  std::string name;
  const fir::ProgramUnit* unit = nullptr;
  // Frame setup: PARAMETER stores, dimension evaluation, MakeArray/Reshape.
  // Registers used here persist for the frame's lifetime (dim values).
  std::vector<Insn> prologue;
  std::vector<Insn> code;  // unit body; ends with Ret
  std::vector<Insn> lane_code;  // lane bodies of the parallel loops
  // Registers: every register is written before it is read, so a reused
  // frame or lane needs no zeroed register file.
  int32_t num_regs = 0;
  std::vector<ScalarSlot> scalars;  // frame cell i backs slot i when local
  std::vector<int32_t> common_scalars;  // slots of kind Common
  std::vector<ArraySlot> arrays;
  // Formal position -> slot id (-1 when the formal is of the other sort);
  // the Call executor binds arguments through these.
  std::vector<int32_t> formal_scalar_slot;
  std::vector<int32_t> formal_array_slot;
  std::vector<ParDoPlan> pardos;
  std::vector<CallPlan> calls;
  std::vector<WritePlan> writes;
};

struct Module {
  std::vector<CompiledUnit> units;
  int32_t main_unit = -1;  // last PROGRAM unit, like the tree-walker
  std::vector<RtVal> consts;
  std::vector<std::string> strings;
  std::vector<AccessDesc> accesses;
  // COMMON key table: keys[i] is the "BLOCK/NAME" string. The executor's
  // privatization overrides and its resolved COMMON cells and stores are
  // all indexed by i.
  std::vector<std::string> keys;
  std::vector<bool> key_is_int;  // declared type at first sight (globals tag)
};

// Compile every unit of `prog`. Never throws: statements the tree-walker
// would fault on compile to Error instructions that fault identically at the
// same execution point.
Module compile(const fir::Program& prog);

}  // namespace ap::interp::bc

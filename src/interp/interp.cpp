#include "interp/interp.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "interp/bytecode.h"
#include "interp/vm.h"
#include "support/text.h"
#include "support/thread_pool.h"

namespace ap::interp {

namespace {

struct StopException {
  std::string message;
};

struct RuntimeError {
  std::string message;
};

// Per-thread execution context: privatized-COMMON overrides, nesting state,
// step budget.
struct ExecCtx {
  std::map<std::string, std::shared_ptr<ArrayStore>> array_overrides;
  std::map<std::string, double*> scalar_overrides;
  bool in_parallel = false;
  int64_t steps_left = 0;

  void charge() {
    if (--steps_left <= 0)
      throw RuntimeError{"statement budget exhausted (runaway loop?)"};
  }
};

struct Frame {
  const fir::ProgramUnit* unit = nullptr;
  std::map<std::string, ScalarRef> scalars;
  std::map<std::string, ArrayView> arrays;
  // Name -> COMMON key, for privatization override plumbing.
  std::map<std::string, std::string> common_key;
  std::deque<double> cells;  // stable storage for local scalars / temps

  ScalarRef* find_scalar(const std::string& n) {
    auto it = scalars.find(n);
    return it == scalars.end() ? nullptr : &it->second;
  }
  ArrayView* find_array(const std::string& n) {
    auto it = arrays.find(n);
    return it == arrays.end() ? nullptr : &it->second;
  }
};

bool implicit_int(const std::string& name) {
  return !name.empty() && name[0] >= 'I' && name[0] <= 'N';
}

}  // namespace

struct Interpreter::Impl {
  const fir::Program& prog;
  InterpOptions opts;
  GlobalStore& globals;
  ThreadPool* pool = nullptr;  // the running thread's kept pool, per run()
  std::mutex output_mu;
  std::string output;
  uint64_t total_steps = 0;
  std::atomic<uint64_t> parallel_steps{0};

  Impl(const fir::Program& p, InterpOptions o, GlobalStore& g)
      : prog(p), opts(o), globals(g) {}

  // ---- expression evaluation ---------------------------------------------

  RtVal eval(const fir::Expr& e, Frame& f, ExecCtx& ctx) {
    using fir::ExprKind;
    switch (e.kind) {
      case ExprKind::IntLit: return RtVal::integer(e.int_val);
      case ExprKind::RealLit: return RtVal::real(e.real_val);
      case ExprKind::LogicalLit: return RtVal::logical(e.logical_val);
      case ExprKind::StrLit:
        throw RuntimeError{"string value in numeric context"};
      case ExprKind::VarRef: {
        ScalarRef* s = f.find_scalar(e.name);
        if (!s) {
          if (f.find_array(e.name))
            throw RuntimeError{"whole-array reference to " + e.name +
                               " in executable expression"};
          s = create_local_scalar(f, e.name);
        }
        return RtVal{*s->cell, s->is_int};
      }
      case ExprKind::ArrayRef: {
        ArrayView* a = f.find_array(e.name);
        if (!a) throw RuntimeError{"reference to undeclared array " + e.name};
        int64_t off = element_offset(e, *a, f, ctx);
        return RtVal{a->store->data()[off], a->is_int};
      }
      case ExprKind::Unary: {
        RtVal v = eval(*e.args[0], f, ctx);
        switch (e.un_op) {
          case fir::UnOp::Neg: return RtVal{-v.v, v.is_int};
          case fir::UnOp::Plus: return v;
          case fir::UnOp::Not: return RtVal::logical(!v.truthy());
        }
        return v;
      }
      case ExprKind::Binary: return eval_binary(e, f, ctx);
      case ExprKind::Intrinsic: return eval_intrinsic(e, f, ctx);
      case ExprKind::Unknown:
      case ExprKind::Unique:
        throw RuntimeError{
            "annotation operator reached execution: reverse inlining did not "
            "run (or failed) before interpretation"};
      case ExprKind::Section:
        throw RuntimeError{"array section in executable expression"};
    }
    throw RuntimeError{"unreachable expression kind"};
  }

  int64_t element_offset(const fir::Expr& ref, const ArrayView& view, Frame& f,
                         ExecCtx& ctx) {
    std::vector<int64_t> subs;
    subs.reserve(ref.args.size());
    for (const auto& a : ref.args) {
      if (!a) throw RuntimeError{"missing subscript for " + ref.name};
      subs.push_back(eval(*a, f, ctx).as_int());
    }
    auto off = view.cell(subs);
    if (!off) {
      std::string s = "subscript out of bounds: ";
      s += ref.name;
      s += '(';
      for (size_t i = 0; i < subs.size(); ++i) {
        if (i) s += ',';
        s += std::to_string(subs[i]);
      }
      s += ')';
      throw RuntimeError{std::move(s)};
    }
    return *off;
  }

  RtVal eval_binary(const fir::Expr& e, Frame& f, ExecCtx& ctx) {
    using fir::BinOp;
    // Short-circuit logicals first.
    if (e.bin_op == BinOp::And) {
      RtVal l = eval(*e.args[0], f, ctx);
      if (!l.truthy()) return RtVal::logical(false);
      return RtVal::logical(eval(*e.args[1], f, ctx).truthy());
    }
    if (e.bin_op == BinOp::Or) {
      RtVal l = eval(*e.args[0], f, ctx);
      if (l.truthy()) return RtVal::logical(true);
      return RtVal::logical(eval(*e.args[1], f, ctx).truthy());
    }
    RtVal l = eval(*e.args[0], f, ctx);
    RtVal r = eval(*e.args[1], f, ctx);
    bool ii = l.is_int && r.is_int;
    switch (e.bin_op) {
      case BinOp::Add: return RtVal{l.v + r.v, ii};
      case BinOp::Sub: return RtVal{l.v - r.v, ii};
      case BinOp::Mul: return RtVal{l.v * r.v, ii};
      case BinOp::Div:
        if (ii) {
          int64_t d = r.as_int();
          if (d == 0) throw RuntimeError{"integer division by zero"};
          return RtVal::integer(l.as_int() / d);
        }
        return RtVal::real(l.v / r.v);
      case BinOp::Pow:
        if (ii && r.as_int() >= 0) {
          int64_t b = l.as_int(), ex = r.as_int(), out = 1;
          for (int64_t i = 0; i < ex; ++i) out *= b;
          return RtVal::integer(out);
        }
        return RtVal::real(std::pow(l.v, r.v));
      case BinOp::Eq: return RtVal::logical(l.v == r.v);
      case BinOp::Ne: return RtVal::logical(l.v != r.v);
      case BinOp::Lt: return RtVal::logical(l.v < r.v);
      case BinOp::Le: return RtVal::logical(l.v <= r.v);
      case BinOp::Gt: return RtVal::logical(l.v > r.v);
      case BinOp::Ge: return RtVal::logical(l.v >= r.v);
      default:
        throw RuntimeError{"unhandled binary operator"};
    }
  }

  RtVal eval_intrinsic(const fir::Expr& e, Frame& f, ExecCtx& ctx) {
    auto arg = [&](size_t i) { return eval(*e.args[i], f, ctx); };
    const std::string& n = e.name;
    if (n == "MIN" || n == "MIN0" || n == "AMIN1") {
      RtVal best = arg(0);
      for (size_t i = 1; i < e.args.size(); ++i) {
        RtVal v = arg(i);
        if (v.v < best.v) best = v;
      }
      return best;
    }
    if (n == "MAX" || n == "MAX0" || n == "AMAX1") {
      RtVal best = arg(0);
      for (size_t i = 1; i < e.args.size(); ++i) {
        RtVal v = arg(i);
        if (v.v > best.v) best = v;
      }
      return best;
    }
    if (n == "MOD" || n == "DMOD") {
      RtVal a = arg(0), b = arg(1);
      if (a.is_int && b.is_int) {
        int64_t d = b.as_int();
        if (d == 0) throw RuntimeError{"MOD by zero"};
        return RtVal::integer(a.as_int() % d);
      }
      return RtVal::real(std::fmod(a.v, b.v));
    }
    if (n == "ABS" || n == "DABS") {
      RtVal a = arg(0);
      return RtVal{std::fabs(a.v), a.is_int};
    }
    if (n == "IABS") return RtVal::integer(std::llabs(arg(0).as_int()));
    if (n == "SQRT" || n == "DSQRT") return RtVal::real(std::sqrt(arg(0).v));
    if (n == "EXP" || n == "DEXP") return RtVal::real(std::exp(arg(0).v));
    if (n == "LOG" || n == "DLOG") return RtVal::real(std::log(arg(0).v));
    if (n == "SIN") return RtVal::real(std::sin(arg(0).v));
    if (n == "COS") return RtVal::real(std::cos(arg(0).v));
    if (n == "TAN") return RtVal::real(std::tan(arg(0).v));
    if (n == "DBLE" || n == "REAL" || n == "FLOAT") return RtVal::real(arg(0).v);
    if (n == "INT") return RtVal::integer(static_cast<int64_t>(arg(0).v));
    if (n == "NINT") return RtVal::integer(std::llround(arg(0).v));
    if (n == "SIGN") {
      RtVal a = arg(0), b = arg(1);
      double m = std::fabs(a.v);
      return RtVal{b.v >= 0 ? m : -m, a.is_int && b.is_int};
    }
    throw RuntimeError{"unimplemented intrinsic " + n};
  }

  // ---- frames ---------------------------------------------------------------

  ScalarRef* create_local_scalar(Frame& f, const std::string& name) {
    f.cells.push_back(0.0);
    ScalarRef ref{&f.cells.back(), implicit_int(name)};
    auto [it, ok] = f.scalars.emplace(name, ref);
    (void)ok;
    return &it->second;
  }

  int64_t eval_dim_bound(const fir::Expr& e, Frame& f, ExecCtx& ctx) {
    return eval(e, f, ctx).as_int();
  }

  // Build the frame for `unit`. `bound_scalars` / `bound_arrays` carry the
  // evaluated actual arguments keyed by formal name.
  Frame make_frame(const fir::ProgramUnit& unit,
                   std::map<std::string, ScalarRef> bound_scalars,
                   std::map<std::string, ArrayView> bound_arrays,
                   std::deque<double> temp_cells, ExecCtx& ctx) {
    Frame f;
    f.unit = &unit;
    f.cells = std::move(temp_cells);
    f.scalars = std::move(bound_scalars);
    f.arrays = std::move(bound_arrays);

    // PARAMETER constants.
    for (const auto& d : unit.decls) {
      if (!d.is_param_const || !d.param_value) continue;
      RtVal v = eval(*d.param_value, f, ctx);
      f.cells.push_back(v.v);
      f.scalars[d.name] = ScalarRef{&f.cells.back(), d.type == fir::Type::Integer};
    }

    // COMMON membership map.
    std::map<std::string, std::string> common_of;
    for (const auto& blk : unit.commons)
      for (const auto& v : blk.vars)
        common_of[fold_upper(v)] = blk.name;

    // Pass 1: common scalars (array dims may reference them).
    for (const auto& d : unit.decls) {
      if (d.is_param_const || !d.dims.empty()) continue;
      auto it = common_of.find(d.name);
      if (it == common_of.end()) continue;
      std::string key = it->second + "/" + d.name;
      bool is_int = d.type == fir::Type::Integer;
      double* cell;
      auto ov = ctx.scalar_overrides.find(key);
      if (ov != ctx.scalar_overrides.end())
        cell = ov->second;
      else
        cell = globals.get_or_create_scalar(key, is_int);
      f.scalars[d.name] = ScalarRef{cell, is_int};
      f.common_key[d.name] = key;
    }

    // Pass 2: common arrays and local arrays / scalars.
    for (const auto& d : unit.decls) {
      if (d.is_param_const) continue;
      if (d.dims.empty()) {
        if (common_of.count(d.name)) continue;  // done above
        if (f.scalars.count(d.name)) continue;  // bound parameter
        f.cells.push_back(0.0);
        f.scalars[d.name] =
            ScalarRef{&f.cells.back(), d.type == fir::Type::Integer};
        continue;
      }
      if (f.arrays.count(d.name)) continue;  // bound array parameter
      // Evaluate declared shape.
      std::vector<int64_t> lower, extent;
      for (const auto& dim : d.dims) {
        int64_t lo = dim.lo ? eval_dim_bound(*dim.lo, f, ctx) : 1;
        int64_t ext = -1;
        if (dim.hi) ext = eval_dim_bound(*dim.hi, f, ctx) - lo + 1;
        lower.push_back(lo);
        extent.push_back(ext);
      }
      auto it = common_of.find(d.name);
      if (it != common_of.end()) {
        std::string key = it->second + "/" + d.name;
        std::shared_ptr<ArrayStore> store;
        auto ov = ctx.array_overrides.find(key);
        if (ov != ctx.array_overrides.end()) {
          store = ov->second;
        } else {
          // Assumed-size COMMON arrays are illegal; treat extent -1 as 1.
          std::vector<int64_t> ce = extent;
          for (auto& e : ce)
            if (e < 0) e = 1;
          store = globals.get_or_create_array(key, d.type, lower, ce);
        }
        f.arrays[d.name] = ArrayView{store, 0, lower, extent,
                                     d.type == fir::Type::Integer};
        f.common_key[d.name] = key;
      } else {
        if (unit.is_param(d.name))
          throw RuntimeError{"array parameter " + d.name + " of " + unit.name +
                             " was not bound (argument mismatch)"};
        std::vector<int64_t> ce = extent;
        for (auto& e : ce)
          if (e < 0)
            throw RuntimeError{"local array " + d.name + " has assumed size"};
        auto store = std::make_shared<ArrayStore>(d.type, lower, ce);
        f.arrays[d.name] =
            ArrayView{store, 0, lower, extent, d.type == fir::Type::Integer};
      }
    }
    return f;
  }

  // ---- statements ----------------------------------------------------------

  void exec_block(const std::vector<fir::StmtPtr>& body, Frame& f, ExecCtx& ctx) {
    for (const auto& s : body) {
      if (!s) continue;
      if (exec_stmt(*s, f, ctx)) return;  // RETURN unwinds the block
    }
  }

  // Returns true if a RETURN was executed.
  bool exec_stmt(const fir::Stmt& s, Frame& f, ExecCtx& ctx) {
    ctx.charge();
    using fir::StmtKind;
    switch (s.kind) {
      case StmtKind::Assign: {
        RtVal v = eval(*s.rhs, f, ctx);
        store(*s.lhs[0], v, f, ctx);
        return false;
      }
      case StmtKind::TupleAssign:
        throw RuntimeError{"tuple assignment reached execution"};
      case StmtKind::Do:
        exec_do(s, f, ctx);
        return false;
      case StmtKind::If: {
        if (eval(*s.cond, f, ctx).truthy()) {
          for (const auto& st : s.body)
            if (st && exec_stmt(*st, f, ctx)) return true;
        } else {
          for (const auto& st : s.else_body)
            if (st && exec_stmt(*st, f, ctx)) return true;
        }
        return false;
      }
      case StmtKind::Call:
        exec_call(s, f, ctx);
        return false;
      case StmtKind::Write: {
        std::string line;
        for (const auto& a : s.args) {
          if (!line.empty()) line += " ";
          if (a->kind == fir::ExprKind::StrLit) {
            line += a->str_val;
          } else {
            RtVal v = eval(*a, f, ctx);
            line += v.is_int ? std::to_string(v.as_int()) : std::to_string(v.v);
          }
        }
        {
          std::lock_guard<std::mutex> lock(output_mu);
          output += line;
          output += '\n';
        }
        return false;
      }
      case StmtKind::Stop:
        throw StopException{s.name};
      case StmtKind::Return:
        return true;
      case StmtKind::Continue:
        return false;
      case StmtKind::TaggedRegion:
        throw RuntimeError{
            "tagged annotation region reached execution: reverse inlining "
            "did not run before interpretation"};
    }
    return false;
  }

  void store(const fir::Expr& lhs, RtVal v, Frame& f, ExecCtx& ctx) {
    if (lhs.kind == fir::ExprKind::VarRef) {
      ScalarRef* s = f.find_scalar(lhs.name);
      if (!s) {
        if (f.find_array(lhs.name))
          throw RuntimeError{"whole-array assignment to " + lhs.name +
                             " in executable code"};
        s = create_local_scalar(f, lhs.name);
      }
      *s->cell = s->is_int ? static_cast<double>(v.as_int()) : v.v;
      return;
    }
    if (lhs.kind == fir::ExprKind::ArrayRef) {
      ArrayView* a = f.find_array(lhs.name);
      if (!a) throw RuntimeError{"assignment to undeclared array " + lhs.name};
      int64_t off = element_offset(lhs, *a, f, ctx);
      a->store->data()[off] =
          a->is_int ? static_cast<double>(v.as_int()) : v.v;
      return;
    }
    throw RuntimeError{"unsupported assignment target"};
  }

  void exec_do(const fir::Stmt& s, Frame& f, ExecCtx& ctx) {
    int64_t lo = eval(*s.do_lo, f, ctx).as_int();
    int64_t hi = eval(*s.do_hi, f, ctx).as_int();
    int64_t step = s.do_step ? eval(*s.do_step, f, ctx).as_int() : 1;
    if (step == 0) throw RuntimeError{"zero DO step"};

    bool parallel = s.omp.parallel && opts.enable_parallel && pool &&
                    !ctx.in_parallel && step == 1 && hi > lo;
    if (!parallel) {
      ScalarRef* iv = f.find_scalar(s.do_var);
      if (!iv) iv = create_local_scalar(f, s.do_var);
      if (step > 0) {
        for (int64_t i = lo; i <= hi; i += step) {
          *iv->cell = static_cast<double>(i);
          for (const auto& st : s.body)
            if (st && exec_stmt(*st, f, ctx))
              throw RuntimeError{"RETURN out of a DO loop"};
        }
      } else {
        for (int64_t i = lo; i >= hi; i += step) {
          *iv->cell = static_cast<double>(i);
          for (const auto& st : s.body)
            if (st && exec_stmt(*st, f, ctx))
              throw RuntimeError{"RETURN out of a DO loop"};
        }
      }
      return;
    }
    exec_parallel_do(s, f, ctx, lo, hi);
  }

  struct PrivateSet {
    // Per-thread private storage, for copy-out by the last-chunk thread.
    std::map<std::string, double> scalar_values;           // frame scalars
    std::map<std::string, std::shared_ptr<ArrayStore>> arrays;  // by common key
    std::map<std::string, std::shared_ptr<ArrayStore>> local_arrays;  // by name
    std::map<std::string, double> reductions;
  };

  void exec_parallel_do(const fir::Stmt& s, Frame& f, ExecCtx& ctx, int64_t lo,
                        int64_t hi) {
    int nthreads = pool->size();
    std::vector<PrivateSet> privs(static_cast<size_t>(nthreads));
    std::vector<int> last_chunk_thread(1, -1);
    std::mutex red_mu;

    // Identify reduction identities.
    auto identity = [](const std::string& op) {
      if (op == "*") return 1.0;
      if (op == "MIN") return std::numeric_limits<double>::infinity();
      if (op == "MAX") return -std::numeric_limits<double>::infinity();
      return 0.0;  // "+"
    };

    pool->parallel_for(lo, hi, [&](int64_t clo, int64_t chi, int tid) {
      PrivateSet& mine = privs[static_cast<size_t>(tid)];
      // Thread-local context: copy overrides, set nesting flag, share the
      // step budget approximately (each thread gets the full remainder; the
      // guard is about runaway loops, not precise accounting).
      ExecCtx tctx;
      tctx.in_parallel = true;
      tctx.steps_left = ctx.steps_left;
      tctx.array_overrides = ctx.array_overrides;
      tctx.scalar_overrides = ctx.scalar_overrides;

      // Shadow frame: shared bindings plus private replacements.
      Frame shadow;
      shadow.unit = f.unit;
      shadow.scalars = f.scalars;
      shadow.arrays = f.arrays;
      shadow.common_key = f.common_key;

      auto privatize_scalar = [&](const std::string& name, double init) {
        shadow.cells.push_back(init);
        ScalarRef* orig = f.find_scalar(name);
        bool is_int = orig ? orig->is_int : implicit_int(name);
        shadow.scalars[name] = ScalarRef{&shadow.cells.back(), is_int};
        auto ck = f.common_key.find(name);
        if (ck != f.common_key.end())
          tctx.scalar_overrides[ck->second] = &shadow.cells.back();
      };

      for (const auto& p : s.omp.privates) {
        ArrayView* av = f.find_array(p);
        if (av) {
          auto priv_store = std::make_shared<ArrayStore>(*av->store);
          ArrayView pv = *av;
          pv.store = priv_store;
          shadow.arrays[p] = pv;
          auto ck = f.common_key.find(p);
          if (ck != f.common_key.end()) {
            tctx.array_overrides[ck->second] = priv_store;
            mine.arrays[ck->second] = priv_store;
          } else {
            mine.local_arrays[p] = priv_store;
          }
          continue;
        }
        ScalarRef* sv = f.find_scalar(p);
        privatize_scalar(p, sv ? *sv->cell : 0.0);
        // Remember the cell for copy-out (pointer into shadow.cells is
        // stable because deque never reallocates existing nodes).
        mine.scalar_values[p] = 0.0;  // value harvested after the chunk runs
      }
      for (const auto& r : s.omp.reductions) {
        shadow.cells.push_back(identity(r.op));
        ScalarRef* orig = f.find_scalar(r.var);
        shadow.scalars[r.var] =
            ScalarRef{&shadow.cells.back(), orig ? orig->is_int : implicit_int(r.var)};
      }
      // Private loop variable.
      shadow.cells.push_back(0.0);
      shadow.scalars[s.do_var] = ScalarRef{&shadow.cells.back(), true};
      ScalarRef iv = shadow.scalars[s.do_var];

      for (int64_t i = clo; i <= chi; ++i) {
        *iv.cell = static_cast<double>(i);
        for (const auto& st : s.body)
          if (st && exec_stmt(*st, shadow, tctx))
            throw RuntimeError{"RETURN out of a parallel DO"};
      }

      parallel_steps.fetch_add(
          static_cast<uint64_t>(ctx.steps_left - tctx.steps_left),
          std::memory_order_relaxed);

      // Harvest private scalar values and reduction partials.
      for (auto& [name, val] : mine.scalar_values)
        val = *shadow.scalars[name].cell;
      for (const auto& r : s.omp.reductions)
        mine.reductions[r.var] = *shadow.scalars[r.var].cell;
      if (chi == hi) {
        std::lock_guard<std::mutex> lock(red_mu);
        last_chunk_thread[0] = tid;
      }
    });

    // Last-value copy-out (sequential semantics for live-out privates).
    if (last_chunk_thread[0] >= 0) {
      PrivateSet& last = privs[static_cast<size_t>(last_chunk_thread[0])];
      for (const auto& [name, val] : last.scalar_values) {
        ScalarRef* sv = f.find_scalar(name);
        if (!sv) sv = create_local_scalar(f, name);
        *sv->cell = val;
      }
      for (const auto& [key, store] : last.arrays) {
        // Copy back into the shared global store.
        auto shared = globals.get_or_create_array(key, store->elem_type(), {}, {});
        if (shared->size() == store->size())
          shared->raw() = store->raw();
      }
      for (const auto& [name, store] : last.local_arrays) {
        ArrayView* av = f.find_array(name);
        if (av && av->store->size() == store->size())
          av->store->raw() = store->raw();
      }
    }
    // Combine reductions deterministically in thread order.
    for (const auto& r : s.omp.reductions) {
      ScalarRef* sv = f.find_scalar(r.var);
      if (!sv) sv = create_local_scalar(f, r.var);
      double acc = *sv->cell;
      for (const auto& p : privs) {
        auto it = p.reductions.find(r.var);
        if (it == p.reductions.end()) continue;
        if (r.op == "*")
          acc *= it->second;
        else if (r.op == "MIN")
          acc = std::min(acc, it->second);
        else if (r.op == "MAX")
          acc = std::max(acc, it->second);
        else
          acc += it->second;
      }
      *sv->cell = sv->is_int ? std::llround(acc) : acc;
    }
    // Loop variable exit value (Fortran leaves first-out-of-range).
    ScalarRef* iv = f.find_scalar(s.do_var);
    if (!iv) iv = create_local_scalar(f, s.do_var);
    *iv->cell = static_cast<double>(hi + 1);
  }

  void exec_call(const fir::Stmt& s, Frame& caller, ExecCtx& ctx) {
    const fir::ProgramUnit* callee = prog.find_unit(s.name);
    if (!callee) throw RuntimeError{"CALL to undefined subroutine " + s.name};
    if (callee->params.size() != s.args.size())
      throw RuntimeError{"argument count mismatch calling " + s.name};

    std::map<std::string, ScalarRef> bscalars;
    std::map<std::string, ArrayView> barrays;
    std::deque<double> temps;

    // Which formals are arrays, per the callee's declarations.
    for (size_t i = 0; i < callee->params.size(); ++i) {
      std::string formal = fold_upper(callee->params[i]);
      const fir::VarDecl* fd = callee->find_decl(formal);
      bool formal_array = fd && !fd->dims.empty();
      const fir::Expr& actual = *s.args[i];

      if (formal_array) {
        if (actual.kind == fir::ExprKind::VarRef) {
          ArrayView* av = caller.find_array(actual.name);
          if (!av)
            throw RuntimeError{"actual " + actual.name + " for array formal " +
                               formal + " is not an array"};
          ArrayView view = *av;  // reshape below once scalars are bound
          barrays[formal] = view;
        } else if (actual.kind == fir::ExprKind::ArrayRef) {
          ArrayView* av = caller.find_array(actual.name);
          if (!av) throw RuntimeError{"actual array " + actual.name + " unknown"};
          int64_t off = element_offset(actual, *av, caller, ctx);
          ArrayView view = *av;
          view.base = off;
          barrays[formal] = view;
        } else {
          throw RuntimeError{"cannot pass expression to array formal " + formal};
        }
      } else {
        // Scalar formal: pass by reference when the actual is an lvalue.
        if (actual.kind == fir::ExprKind::VarRef) {
          ScalarRef* sv = caller.find_scalar(actual.name);
          if (!sv) sv = create_local_scalar(caller, actual.name);
          bscalars[formal] = *sv;
        } else if (actual.kind == fir::ExprKind::ArrayRef) {
          ArrayView* av = caller.find_array(actual.name);
          if (!av) throw RuntimeError{"actual array " + actual.name + " unknown"};
          int64_t off = element_offset(actual, *av, caller, ctx);
          bscalars[formal] = ScalarRef{av->store->data() + off, av->is_int};
        } else {
          RtVal v = eval(actual, caller, ctx);
          temps.push_back(v.v);
          bscalars[formal] = ScalarRef{&temps.back(), v.is_int};
        }
      }
    }

    Frame f = make_frame(*callee, std::move(bscalars), std::move(barrays),
                         std::move(temps), ctx);

    // Reshape array-formal views with the callee's declared (possibly
    // adjustable) dimensions, now that scalar formals are bound.
    for (const auto& p : callee->params) {
      std::string formal = fold_upper(p);
      const fir::VarDecl* fd = callee->find_decl(formal);
      if (!fd || fd->dims.empty()) continue;
      ArrayView* view = f.find_array(formal);
      if (!view) continue;
      std::vector<int64_t> lower, extent;
      for (const auto& dim : fd->dims) {
        int64_t lo = dim.lo ? eval_dim_bound(*dim.lo, f, ctx) : 1;
        int64_t ext = dim.hi ? eval_dim_bound(*dim.hi, f, ctx) - lo + 1 : -1;
        lower.push_back(lo);
        extent.push_back(ext);
      }
      view->lower = std::move(lower);
      view->extent = std::move(extent);
      view->is_int = fd->type == fir::Type::Integer;
    }

    exec_block(callee->body, f, ctx);
  }
};

Interpreter::Interpreter(const fir::Program& prog, InterpOptions opts)
    : opts_(opts), globals_(std::make_unique<GlobalStore>()) {
  if (opts.engine == Engine::Bytecode) {
    auto t0 = std::chrono::steady_clock::now();
    module_ = std::make_unique<bc::Module>(bc::compile(prog));
    compile_ms_ = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  } else {
    impl_ = std::make_unique<Impl>(prog, opts, *globals_);
  }
}

Interpreter::~Interpreter() = default;

RunResult Interpreter::run() {
  if (module_) return bc::execute(*module_, opts_, *globals_, compile_ms_);
  RunResult result;
  const fir::ProgramUnit* main = nullptr;
  for (const auto& u : impl_->prog.units)
    if (u->kind == fir::UnitKind::Program) main = u.get();
  if (!main) {
    result.error = "no PROGRAM unit";
    return result;
  }
  std::optional<ThreadPoolLease> lease;
  if (impl_->opts.num_threads > 1 && impl_->opts.enable_parallel)
    lease.emplace(impl_->opts.num_threads);
  impl_->pool = lease ? &lease->pool() : nullptr;
  ExecCtx ctx;
  ctx.steps_left = impl_->opts.max_steps;
  try {
    Frame f = impl_->make_frame(*main, {}, {}, {}, ctx);
    impl_->exec_block(main->body, f, ctx);
    result.ok = true;
  } catch (const StopException& e) {
    result.ok = true;
    result.stopped = true;
    result.stop_message = e.message;
  } catch (const RuntimeError& e) {
    result.error = e.message;
  }
  impl_->pool = nullptr;
  result.output = impl_->output;
  uint64_t par = impl_->parallel_steps.load(std::memory_order_relaxed);
  result.statements_in_parallel = par;
  result.statements_executed =
      static_cast<uint64_t>(impl_->opts.max_steps - ctx.steps_left) + par;
  return result;
}

}  // namespace ap::interp

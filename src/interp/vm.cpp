// Executor for the bytecode IR. interp.cpp is the reference implementation;
// every observable behaviour here (values, error messages, statement
// counters, OMP privatization rules) mirrors it exactly.
#include "interp/vm.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "support/thread_pool.h"

namespace ap::interp::bc {

namespace {

// Per-thread execution state. Privatization overrides are dense vectors
// indexed by the module's COMMON key ids — the slot-indirection replacement
// for the tree-walker's string-keyed override maps.
struct VmCtx {
  std::vector<double*> scalar_ov;
  std::vector<std::shared_ptr<ArrayStore>> array_ov;
  bool in_parallel = false;
  int64_t steps_left = 0;
  int32_t par_body = -1;  // body_start of the actively chunked loop
  uint64_t insns = 0;

  void charge() {
    if (--steps_left <= 0)
      throw RtError{"statement budget exhausted (runaway loop?)"};
  }
};

// Frame-resident array state: the ArrayView equivalent, with the viewer's
// shape unpacked into fixed arrays so the offset loop never chases vectors.
struct ArrayRec {
  std::shared_ptr<ArrayStore> store;
  double* data = nullptr;
  int64_t base = 0;
  int32_t rank = 0;
  bool is_int = false;
  std::array<int64_t, kMaxRank> lower{};
  std::array<int64_t, kMaxRank> extent{};  // -1 = assumed size
};

// One frame: cell pointers per scalar slot (locals point into `cells`,
// COMMONs into the global store or an override, formals wherever the caller
// bound them) plus one array record per array slot.
struct VmFrame {
  const CompiledUnit* cu = nullptr;
  std::vector<double*> scalar;
  std::vector<uint8_t> scalar_int;
  std::vector<ArrayRec> arrays;
  std::vector<double> cells;  // backing storage, one cell per scalar slot
};

// One ParDo lane's state, kept on the Executor and reused by every region,
// so a region allocates nothing once the vectors have grown. `ctx` and
// `shadow` are refreshed from the encountering thread's per region; the
// rest is what the lane harvests for copy-out and the reduction combine.
// Cache-line aligned: `ctx` is written on every instruction, so two lanes
// must not share a line.
struct alignas(64) Lane {
  VmCtx ctx;
  VmFrame shadow;
  std::vector<double> cells;  // private scalars, reductions, loop variable
  std::vector<RtVal> regs;
  std::vector<double> scalar_values;                // per plan.privates
  std::vector<std::shared_ptr<ArrayStore>> arrays;  // per plan.privates
  std::vector<double> reductions;                   // per plan.reductions
};

double red_identity(RedOp op) {
  switch (op) {
    case RedOp::Prod: return 1.0;
    case RedOp::Min: return std::numeric_limits<double>::infinity();
    case RedOp::Max: return -std::numeric_limits<double>::infinity();
    case RedOp::Sum: break;
  }
  return 0.0;
}

std::string format_val(RtVal v) {
  return v.is_int ? std::to_string(v.as_int()) : std::to_string(v.v);
}

class Executor {
 public:
  Executor(const Module& m, const InterpOptions& opts, GlobalStore& globals)
      : m_(m), opts_(opts), globals_(globals) {
    if (opts_.num_threads > 1 && opts_.enable_parallel) {
      pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
      lanes_.resize(static_cast<size_t>(pool_->size()));
    }
  }

  RunResult run(double compile_ms) {
    RunResult result;
    result.bytecode_compile_ms = compile_ms;
    if (m_.main_unit < 0) {
      result.error = "no PROGRAM unit";
      return result;
    }
    VmCtx ctx;
    ctx.steps_left = opts_.max_steps;
    ctx.scalar_ov.assign(m_.keys.size(), nullptr);
    ctx.array_ov.assign(m_.keys.size(), nullptr);
    try {
      const CompiledUnit& cu = m_.units[static_cast<size_t>(m_.main_unit)];
      VmFrame f;
      init_frame(f, cu, ctx);
      run_unit(cu, f, ctx);
      result.ok = true;
    } catch (const RtStop& e) {
      result.ok = true;
      result.stopped = true;
      result.stop_message = e.message;
    } catch (const RtError& e) {
      result.error = e.message;
    }
    result.output = output_;
    uint64_t par = parallel_steps_.load(std::memory_order_relaxed);
    result.statements_in_parallel = par;
    result.statements_executed =
        static_cast<uint64_t>(opts_.max_steps - ctx.steps_left) + par;
    result.instructions_executed =
        ctx.insns + parallel_insns_.load(std::memory_order_relaxed);
    return result;
  }

 private:
  const Module& m_;
  InterpOptions opts_;
  GlobalStore& globals_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Lane> lanes_;  // indexed by chunk; see run_pardo
  std::mutex output_mu_;
  std::string output_;
  std::atomic<uint64_t> parallel_steps_{0};
  std::atomic<uint64_t> parallel_insns_{0};

  // ---- frames -------------------------------------------------------------

  void init_frame(VmFrame& f, const CompiledUnit& cu, VmCtx& ctx) {
    f.cu = &cu;
    size_t ns = cu.scalars.size();
    f.cells.assign(ns, 0.0);
    f.scalar.resize(ns);
    f.scalar_int.resize(ns);
    for (size_t i = 0; i < ns; ++i) {
      const ScalarSlot& s = cu.scalars[i];
      if (s.kind == ScalarKind::Common) {
        double* ov = ctx.scalar_ov[static_cast<size_t>(s.common_key)];
        f.scalar[i] =
            ov ? ov
               : globals_.get_or_create_scalar(
                     m_.keys[static_cast<size_t>(s.common_key)], s.is_int);
      } else {
        f.scalar[i] = &f.cells[i];
      }
      f.scalar_int[i] = s.is_int ? 1 : 0;
    }
    f.arrays.assign(cu.arrays.size(), ArrayRec{});
  }

  void run_unit(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx) {
    std::vector<RtVal> regs(static_cast<size_t>(cu.num_regs));
    exec_range(cu, f, ctx, regs.data(), cu.prologue, 0,
               static_cast<int32_t>(cu.prologue.size()));
    exec_range(cu, f, ctx, regs.data(), cu.code, 0,
               static_cast<int32_t>(cu.code.size()));
  }

  // ---- arrays -------------------------------------------------------------

  static int64_t sub_value(const SubRef& s, const RtVal* r) {
    return s.reg >= 0 ? static_cast<int64_t>(r[s.reg].v) : s.cst;
  }

  // Evaluate one declared shape (DimSpecs referencing prologue registers).
  static void eval_dims(const ArraySlot& as, const RtVal* r,
                        std::array<int64_t, kMaxRank>& lower,
                        std::array<int64_t, kMaxRank>& extent) {
    for (size_t i = 0; i < as.dims.size(); ++i) {
      const DimSpec& dm = as.dims[i];
      int64_t lo = sub_value(dm.lo, r);
      int64_t ext = -1;
      if (dm.has_hi) ext = sub_value(dm.hi, r) - lo + 1;
      lower[i] = lo;
      extent[i] = ext;
    }
  }

  void make_array(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx,
                  const RtVal* r, int32_t slot) {
    const ArraySlot& as = cu.arrays[static_cast<size_t>(slot)];
    ArrayRec& rec = f.arrays[static_cast<size_t>(slot)];
    size_t n = as.dims.size();
    std::array<int64_t, kMaxRank> lower{}, extent{};
    eval_dims(as, r, lower, extent);
    std::shared_ptr<ArrayStore> store;
    if (as.kind == ArrayKind::Common) {
      store = ctx.array_ov[static_cast<size_t>(as.common_key)];
      if (!store) {
        // Assumed-size COMMON arrays are illegal; treat extent -1 as 1.
        std::vector<int64_t> lo(lower.begin(), lower.begin() + n);
        std::vector<int64_t> ce(extent.begin(), extent.begin() + n);
        for (auto& e : ce)
          if (e < 0) e = 1;
        store = globals_.get_or_create_array(
            m_.keys[static_cast<size_t>(as.common_key)], as.type,
            std::move(lo), std::move(ce));
      }
    } else {
      for (size_t i = 0; i < n; ++i)
        if (extent[i] < 0)
          throw RtError{"local array " + as.name + " has assumed size"};
      store = std::make_shared<ArrayStore>(
          as.type, std::vector<int64_t>(lower.begin(), lower.begin() + n),
          std::vector<int64_t>(extent.begin(), extent.begin() + n));
    }
    rec.store = std::move(store);
    rec.data = rec.store->data();
    rec.base = 0;
    rec.rank = static_cast<int32_t>(n);
    rec.is_int = as.is_int;
    rec.lower = lower;
    rec.extent = extent;
  }

  void reshape(const CompiledUnit& cu, VmFrame& f, const RtVal* r,
               int32_t slot) {
    const ArraySlot& as = cu.arrays[static_cast<size_t>(slot)];
    ArrayRec& rec = f.arrays[static_cast<size_t>(slot)];
    if (!rec.store)
      throw RtError{"array parameter " + as.name + " of " + cu.name +
                    " was not bound (argument mismatch)"};
    eval_dims(as, r, rec.lower, rec.extent);
    rec.rank = static_cast<int32_t>(as.dims.size());
    rec.is_int = as.is_int;
  }

  [[noreturn]] static void oob_error(const std::string& name,
                                     const int64_t* subs, int32_t rank) {
    std::string s = name + "(";
    for (int32_t i = 0; i < rank; ++i)
      s += (i ? "," : "") + std::to_string(subs[i]);
    throw RtError{"subscript out of bounds: " + s + ")"};
  }

  // Checked linear offset of an access (ArrayView::cell semantics).
  static int64_t access_offset(const AccessDesc& acc, const ArrayRec& rec,
                               const RtVal* r, const std::string& name) {
    int64_t subs[kMaxRank];
    for (int32_t i = 0; i < acc.rank; ++i) subs[i] = sub_value(acc.subs[i], r);
    if (acc.rank == rec.rank) {
      int64_t off = rec.base, stride = 1;
      int32_t d = 0;
      for (; d < acc.rank; ++d) {
        int64_t rel = subs[d] - rec.lower[d];
        int64_t e = rec.extent[d];
        if (rel < 0 || (e >= 0 && rel >= e)) break;
        off += rel * stride;
        stride *= e >= 0 ? e : 1;
      }
      if (d == acc.rank && off >= 0 &&
          off < static_cast<int64_t>(rec.store->size()))
        return off;
    }
    oob_error(name, subs, acc.rank);
  }

  // ---- parallel DO --------------------------------------------------------

  void run_pardo(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx,
                 const ParDoPlan& plan, int64_t lo, int64_t hi) {
    // One chunk per lane, contiguous and in order (ThreadPool::parallel_for),
    // so lanes [0, nchunks) run and the last one runs the last iteration.
    const size_t nchunks =
        static_cast<size_t>(std::min<int64_t>(pool_->size(), hi - lo + 1));
    const size_t np = plan.privates.size(), nr = plan.reductions.size();

    pool_->parallel_for(lo, hi, [&](int64_t clo, int64_t chi, int tid) {
      Lane& L = lanes_[static_cast<size_t>(tid)];
      // Thread-local context: copy overrides, set nesting flag, share the
      // step budget approximately (each thread gets the full remainder; the
      // guard is about runaway loops, not precise accounting).
      VmCtx& tctx = L.ctx;
      tctx.in_parallel = true;
      tctx.steps_left = ctx.steps_left;
      tctx.insns = 0;
      tctx.scalar_ov = ctx.scalar_ov;
      tctx.array_ov = ctx.array_ov;
      tctx.par_body = plan.body_start;

      // Shadow frame: shared cell pointers plus private replacements in
      // L.cells, sized once up front so the pointers stay valid.
      VmFrame& shadow = L.shadow;
      shadow.cu = f.cu;
      shadow.scalar = f.scalar;
      shadow.scalar_int = f.scalar_int;
      shadow.arrays = f.arrays;
      L.cells.resize(np + nr + 1);
      double* cell = L.cells.data();
      L.arrays.resize(np);

      for (size_t pi = 0; pi < np; ++pi) {
        const PrivateSpec& p = plan.privates[pi];
        if (p.is_array) {
          ArrayRec& rec = shadow.arrays[static_cast<size_t>(p.slot)];
          std::shared_ptr<ArrayStore>& priv_store = L.arrays[pi];
          if (priv_store)
            *priv_store = *rec.store;
          else
            priv_store = std::make_shared<ArrayStore>(*rec.store);
          rec.store = priv_store;
          rec.data = priv_store->data();
          if (p.common_key >= 0)
            tctx.array_ov[static_cast<size_t>(p.common_key)] = priv_store;
        } else {
          *cell = *shadow.scalar[static_cast<size_t>(p.slot)];
          shadow.scalar[static_cast<size_t>(p.slot)] = cell;
          if (p.common_key >= 0)
            tctx.scalar_ov[static_cast<size_t>(p.common_key)] = cell;
          ++cell;
        }
      }
      for (const ReductionSpec& rs : plan.reductions) {
        *cell = red_identity(rs.op);
        shadow.scalar[static_cast<size_t>(rs.slot)] = cell++;
      }
      // Private loop variable.
      double* iv_cell = cell;
      shadow.scalar[static_cast<size_t>(plan.iv_slot)] = iv_cell;
      shadow.scalar_int[static_cast<size_t>(plan.iv_slot)] = 1;

      L.regs.assign(static_cast<size_t>(cu.num_regs), RtVal{});
      for (int64_t i = clo; i <= chi; ++i) {
        *iv_cell = static_cast<double>(i);
        exec_range(cu, shadow, tctx, L.regs.data(), cu.code, plan.body_start,
                   plan.body_end);
      }

      parallel_steps_.fetch_add(
          static_cast<uint64_t>(ctx.steps_left - tctx.steps_left),
          std::memory_order_relaxed);
      parallel_insns_.fetch_add(tctx.insns, std::memory_order_relaxed);

      // Harvest private scalar values and reduction partials.
      L.scalar_values.resize(np);
      for (size_t pi = 0; pi < np; ++pi)
        if (!plan.privates[pi].is_array)
          L.scalar_values[pi] =
              *shadow.scalar[static_cast<size_t>(plan.privates[pi].slot)];
      L.reductions.resize(nr);
      for (size_t ri = 0; ri < nr; ++ri)
        L.reductions[ri] =
            *shadow.scalar[static_cast<size_t>(plan.reductions[ri].slot)];
    });

    // Last-value copy-out (sequential semantics for live-out privates).
    const Lane& last = lanes_[nchunks - 1];
    for (size_t pi = 0; pi < np; ++pi) {
      const PrivateSpec& p = plan.privates[pi];
      if (!p.is_array) {
        *f.scalar[static_cast<size_t>(p.slot)] = last.scalar_values[pi];
        continue;
      }
      const ArrayStore& store = *last.arrays[pi];
      if (p.common_key >= 0) {
        // Copy back into the shared global store.
        auto shared = globals_.get_or_create_array(
            m_.keys[static_cast<size_t>(p.common_key)], store.elem_type(), {},
            {});
        if (shared->size() == store.size()) shared->raw() = store.raw();
      } else {
        ArrayRec& rec = f.arrays[static_cast<size_t>(p.slot)];
        if (rec.store && rec.store->size() == store.size())
          rec.store->raw() = store.raw();
      }
    }
    // Combine reductions deterministically in thread order.
    for (size_t ri = 0; ri < nr; ++ri) {
      const ReductionSpec& rs = plan.reductions[ri];
      double* cell = f.scalar[static_cast<size_t>(rs.slot)];
      double acc = *cell;
      for (size_t t = 0; t < nchunks; ++t) {
        double v = lanes_[t].reductions[ri];
        switch (rs.op) {
          case RedOp::Prod: acc *= v; break;
          case RedOp::Min: acc = std::min(acc, v); break;
          case RedOp::Max: acc = std::max(acc, v); break;
          case RedOp::Sum: acc += v; break;
        }
      }
      *cell = f.scalar_int[static_cast<size_t>(rs.slot)]
                  ? static_cast<double>(std::llround(acc))
                  : acc;
    }
    // Loop variable exit value (Fortran leaves first-out-of-range).
    *f.scalar[static_cast<size_t>(plan.iv_slot)] =
        static_cast<double>(hi + 1);
  }

  // ---- dispatch loop ------------------------------------------------------

  void exec_range(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx, RtVal* r,
                  const std::vector<Insn>& code, int32_t pc, int32_t end) {
    const Insn* ip = code.data();
    while (pc < end) {
      const Insn& I = ip[pc++];
      ++ctx.insns;
      switch (I.op) {
        case Op::Charge:
          ctx.charge();
          break;
        case Op::Move:
          r[I.a] = r[I.b];
          break;
        case Op::LoadConst:
          r[I.a] = m_.consts[static_cast<size_t>(I.d)];
          break;
        case Op::LoadBool:
          r[I.a] = RtVal::logical(I.d != 0);
          break;
        case Op::LoadScalar:
          r[I.a] = RtVal{*f.scalar[static_cast<size_t>(I.d)],
                         f.scalar_int[static_cast<size_t>(I.d)] != 0};
          break;
        case Op::StoreScalar:
          *f.scalar[static_cast<size_t>(I.d)] =
              f.scalar_int[static_cast<size_t>(I.d)]
                  ? static_cast<double>(r[I.a].as_int())
                  : r[I.a].v;
          break;
        case Op::StoreRaw:
          *f.scalar[static_cast<size_t>(I.d)] = r[I.a].v;
          break;
        case Op::LoadElem: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          const ArrayRec& rec = f.arrays[static_cast<size_t>(acc.array_slot)];
          if (!rec.store)
            throw RtError{
                "reference to undeclared array " +
                cu.arrays[static_cast<size_t>(acc.array_slot)].name};
          int64_t off = access_offset(
              acc, rec, r, cu.arrays[static_cast<size_t>(acc.array_slot)].name);
          r[I.a] = RtVal{rec.data[off], rec.is_int};
          break;
        }
        case Op::StoreElem: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          ArrayRec& rec = f.arrays[static_cast<size_t>(acc.array_slot)];
          if (!rec.store)
            throw RtError{
                "assignment to undeclared array " +
                cu.arrays[static_cast<size_t>(acc.array_slot)].name};
          int64_t off = access_offset(
              acc, rec, r, cu.arrays[static_cast<size_t>(acc.array_slot)].name);
          rec.data[off] =
              rec.is_int ? static_cast<double>(r[I.a].as_int()) : r[I.a].v;
          break;
        }
        case Op::Addr: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          const ArrayRec& rec = f.arrays[static_cast<size_t>(acc.array_slot)];
          if (!rec.store)
            throw RtError{
                "actual array " +
                cu.arrays[static_cast<size_t>(acc.array_slot)].name +
                " unknown"};
          int64_t off = access_offset(
              acc, rec, r, cu.arrays[static_cast<size_t>(acc.array_slot)].name);
          r[I.a] = RtVal::integer(off);
          break;
        }
        case Op::Neg: r[I.a] = rt_neg(r[I.b]); break;
        case Op::NotOp: r[I.a] = rt_not(r[I.b]); break;
        case Op::Add: r[I.a] = rt_add(r[I.b], r[I.c]); break;
        case Op::Sub: r[I.a] = rt_sub(r[I.b], r[I.c]); break;
        case Op::Mul: r[I.a] = rt_mul(r[I.b], r[I.c]); break;
        case Op::Div: r[I.a] = rt_div(r[I.b], r[I.c]); break;
        case Op::PowOp: r[I.a] = rt_pow(r[I.b], r[I.c]); break;
        case Op::CmpEq: r[I.a] = rt_eq(r[I.b], r[I.c]); break;
        case Op::CmpNe: r[I.a] = rt_ne(r[I.b], r[I.c]); break;
        case Op::CmpLt: r[I.a] = rt_lt(r[I.b], r[I.c]); break;
        case Op::CmpLe: r[I.a] = rt_le(r[I.b], r[I.c]); break;
        case Op::CmpGt: r[I.a] = rt_gt(r[I.b], r[I.c]); break;
        case Op::CmpGe: r[I.a] = rt_ge(r[I.b], r[I.c]); break;
        case Op::Bool: r[I.a] = RtVal::logical(r[I.b].truthy()); break;
        case Op::MinStep: r[I.a] = rt_min_step(r[I.a], r[I.b]); break;
        case Op::MaxStep: r[I.a] = rt_max_step(r[I.a], r[I.b]); break;
        case Op::ModOp: r[I.a] = rt_mod(r[I.b], r[I.c]); break;
        case Op::SignOp: r[I.a] = rt_sign(r[I.b], r[I.c]); break;
        case Op::AbsOp: r[I.a] = rt_abs(r[I.b]); break;
        case Op::IntAbs: r[I.a] = rt_iabs(r[I.b]); break;
        case Op::Sqrt: r[I.a] = rt_sqrt(r[I.b]); break;
        case Op::ExpOp: r[I.a] = rt_exp(r[I.b]); break;
        case Op::LogOp: r[I.a] = rt_log(r[I.b]); break;
        case Op::Sin: r[I.a] = rt_sin(r[I.b]); break;
        case Op::Cos: r[I.a] = rt_cos(r[I.b]); break;
        case Op::Tan: r[I.a] = rt_tan(r[I.b]); break;
        case Op::ToReal: r[I.a] = rt_toreal(r[I.b]); break;
        case Op::ToInt: r[I.a] = rt_toint(r[I.b]); break;
        case Op::Nint: r[I.a] = rt_nint(r[I.b]); break;
        case Op::Jump:
          pc = I.d;
          break;
        case Op::JumpIfFalse:
          if (!r[I.a].truthy()) pc = I.d;
          break;
        case Op::JumpIfTrue:
          if (r[I.a].truthy()) pc = I.d;
          break;
        case Op::CheckStep:
          if (static_cast<int64_t>(r[I.a].v) == 0)
            throw RtError{"zero DO step"};
          break;
        case Op::LoopTest: {
          int64_t i = static_cast<int64_t>(r[I.a].v);
          int64_t hi = static_cast<int64_t>(r[I.b].v);
          int64_t step = static_cast<int64_t>(r[I.c].v);
          if (step > 0 ? i > hi : i < hi) pc = I.d;
          break;
        }
        case Op::LoopNext:
          r[I.a].v += r[I.c].v;
          pc = I.d;
          break;
        case Op::ParDo: {
          int64_t lo = static_cast<int64_t>(r[I.a].v);
          int64_t hi = static_cast<int64_t>(r[I.b].v);
          int64_t step = static_cast<int64_t>(r[I.c].v);
          if (opts_.enable_parallel && pool_ && !ctx.in_parallel &&
              step == 1 && hi > lo) {
            const ParDoPlan& plan = cu.pardos[static_cast<size_t>(I.d)];
            run_pardo(cu, f, ctx, plan, lo, hi);
            pc = plan.exit_pc;
          }
          break;  // otherwise fall through to the serial loop
        }
        case Op::MakeArray:
          make_array(cu, f, ctx, r, I.d);
          break;
        case Op::Reshape:
          reshape(cu, f, r, I.d);
          break;
        case Op::Call:
          exec_call(cu, f, ctx, r, I.d);
          break;
        case Op::Write:
          exec_write(cu, r, I.d);
          break;
        case Op::Stop:
          throw RtStop{m_.strings[static_cast<size_t>(I.d)]};
        case Op::Error:
          throw RtError{m_.strings[static_cast<size_t>(I.d)]};
        case Op::ReturnInDo:
          throw RtError{I.d == ctx.par_body ? "RETURN out of a parallel DO"
                                            : "RETURN out of a DO loop"};
        case Op::Ret:
          return;
      }
    }
  }

  void exec_call(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx,
                 const RtVal* r, int32_t id) {
    const CallPlan& plan = cu.calls[static_cast<size_t>(id)];
    const CompiledUnit& callee = m_.units[static_cast<size_t>(plan.callee)];
    VmFrame g;
    init_frame(g, callee, ctx);
    for (size_t i = 0; i < plan.args.size(); ++i) {
      const CallArg& a = plan.args[i];
      switch (a.kind) {
        case ArgKind::ScalarPtr: {
          int32_t fs = callee.formal_scalar_slot[i];
          g.scalar[static_cast<size_t>(fs)] =
              f.scalar[static_cast<size_t>(a.slot)];
          g.scalar_int[static_cast<size_t>(fs)] =
              f.scalar_int[static_cast<size_t>(a.slot)];
          break;
        }
        case ArgKind::ScalarElem: {
          int32_t fs = callee.formal_scalar_slot[i];
          const ArrayRec& rec = f.arrays[static_cast<size_t>(a.slot)];
          g.scalar[static_cast<size_t>(fs)] =
              rec.data + static_cast<int64_t>(r[a.reg].v);
          g.scalar_int[static_cast<size_t>(fs)] = rec.is_int ? 1 : 0;
          break;
        }
        case ArgKind::ScalarValue: {
          int32_t fs = callee.formal_scalar_slot[i];
          g.cells[static_cast<size_t>(fs)] = r[a.reg].v;
          g.scalar[static_cast<size_t>(fs)] = &g.cells[static_cast<size_t>(fs)];
          g.scalar_int[static_cast<size_t>(fs)] = r[a.reg].is_int ? 1 : 0;
          break;
        }
        case ArgKind::ArrayWhole: {
          int32_t fa = callee.formal_array_slot[i];
          g.arrays[static_cast<size_t>(fa)] =
              f.arrays[static_cast<size_t>(a.slot)];
          break;
        }
        case ArgKind::ArrayElem: {
          int32_t fa = callee.formal_array_slot[i];
          g.arrays[static_cast<size_t>(fa)] =
              f.arrays[static_cast<size_t>(a.slot)];
          g.arrays[static_cast<size_t>(fa)].base =
              static_cast<int64_t>(r[a.reg].v);
          break;
        }
      }
    }
    int32_t saved = ctx.par_body;
    ctx.par_body = -1;
    run_unit(callee, g, ctx);
    ctx.par_body = saved;
  }

  void exec_write(const CompiledUnit& cu, const RtVal* r, int32_t id) {
    const WritePlan& plan = cu.writes[static_cast<size_t>(id)];
    std::string line;
    for (const WriteItem& item : plan.items) {
      if (!line.empty()) line += " ";
      if (item.str >= 0)
        line += m_.strings[static_cast<size_t>(item.str)];
      else
        line += format_val(r[item.reg]);
    }
    {
      std::lock_guard<std::mutex> lock(output_mu_);
      output_ += line;
      output_ += '\n';
    }
  }
};

}  // namespace

RunResult execute(const Module& m, const InterpOptions& opts,
                  GlobalStore& globals, double compile_ms) {
  Executor ex(m, opts, globals);
  return ex.run(compile_ms);
}

}  // namespace ap::interp::bc

// Executor for the bytecode IR. interp.cpp is the reference implementation;
// every observable behaviour here (values, error messages, statement
// counters, OMP privatization rules) mirrors it exactly.
#include "interp/vm.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "support/thread_pool.h"

namespace ap::interp::bc {

namespace {

// Frame-resident array state: the ArrayView equivalent, with the viewer's
// shape unpacked into fixed arrays so the offset loop never chases vectors.
// Plain data: `data` points at the start of the underlying store (a frame's
// local array, a lane's private copy or a GlobalStore array), whose owner
// outlives every record that points into it, and `size` caches its length.
struct ArrayRec {
  double* data = nullptr;  // nullptr: not bound
  int64_t size = 0;
  int64_t base = 0;
  int32_t rank = 0;
  bool is_int = false;
  std::array<int64_t, kMaxRank> lower{};
  std::array<int64_t, kMaxRank> extent{};  // -1 = assumed size
};

// One frame: cell pointers per scalar slot (locals point into `cells`,
// COMMONs into the global store or an override, formals wherever the caller
// bound them), one array record per array slot, the backing store of the
// local arrays and the register file. Frames are reused call after call;
// see VmCtx::frames.
struct VmFrame {
  const CompiledUnit* cu = nullptr;
  std::vector<double*> scalar;
  std::vector<uint8_t> scalar_int;
  std::vector<ArrayRec> arrays;
  std::vector<double> cells;  // backing storage, one cell per scalar slot
  std::vector<std::vector<double>> locals;  // per array slot, when local
  std::vector<RtVal> regs;
};

// Per-thread execution state: the main thread's, or one ParDo lane's.
// Privatization overrides are dense vectors indexed by the module's COMMON
// key ids — the slot-indirection replacement for the tree-walker's
// string-keyed override maps. Only lanes set them, and a lane clears the
// entries it set when its chunk ends, so they are all null between regions.
struct VmCtx {
  int64_t steps_left = 0;
  uint64_t insns = 0;
  bool in_parallel = false;
  int32_t par_body = -1;  // lane_start of the actively chunked loop
  // A lane's private cells and arrays (the Priv instructions' operands).
  double* priv = nullptr;
  const uint8_t* priv_int = nullptr;
  ArrayRec* priv_arr = nullptr;
  // Call stack by depth: frames[d] serves every call made at depth d, so a
  // call allocates nothing once the stack and its frames have grown.
  // Pointers, so a frame stays put while deeper ones are added.
  std::vector<std::unique_ptr<VmFrame>> frames;
  size_t depth = 0;
  std::vector<double*> scalar_ov;
  std::vector<const ArrayRec*> array_ov;

  void charge() {
    if (--steps_left <= 0)
      throw RtError{"statement budget exhausted (runaway loop?)"};
  }
};

// Pops the frame pushed by Executor::enter, on return and on a fault.
struct FrameGuard {
  VmCtx& ctx;
  ~FrameGuard() { --ctx.depth; }
};

// One ParDo lane's state, kept on the Executor and reused by every region.
// A region sets up only what its plan privatizes: the cells, the private
// array copies and the override entries of its privates. Only the lane
// writes here while a region runs; the encountering thread reads `done`,
// the counters in `ctx` (same cache line) and the cells after the join.
// Cache-line aligned: `ctx` is written on every instruction, so two lanes
// must not share a line.
struct alignas(64) Lane {
  bool done = false;  // this region's chunk ran to its end
  VmCtx ctx;
  std::vector<double> cells;  // private scalars, reductions, loop variable
  std::vector<uint8_t> cell_int;
  std::vector<ArrayRec> arrays;              // per private array
  std::vector<std::vector<double>> buffers;  // their backing stores
  std::vector<RtVal> regs;
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
      : m_(m),
        opts_(opts),
        globals_(globals),
        common_scalars_(
            std::make_unique<std::atomic<double*>[]>(m.keys.size())),
        common_arrays_(
            std::make_unique<std::atomic<ArrayStore*>[]>(m.keys.size())) {
    if (opts_.num_threads > 1 && opts_.enable_parallel) {
      lease_.emplace(opts_.num_threads);
      pool_ = &lease_->pool();
      lanes_.resize(static_cast<size_t>(pool_->size()));
      for (Lane& L : lanes_) clear_overrides(L.ctx);
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
    clear_overrides(ctx);
    try {
      const CompiledUnit& cu = m_.units[static_cast<size_t>(m_.main_unit)];
      VmFrame& f = enter(ctx, cu);
      FrameGuard guard{ctx};
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
    result.statements_in_parallel = parallel_steps_;
    result.statements_executed =
        static_cast<uint64_t>(opts_.max_steps - ctx.steps_left) +
        parallel_steps_;
    result.instructions_executed = ctx.insns + parallel_insns_;
    return result;
  }

 private:
  const Module& m_;
  InterpOptions opts_;
  GlobalStore& globals_;
  // COMMON cells and stores by key id, resolved from globals_ on first
  // touch. A first touch can happen on several lanes at once; GlobalStore
  // hands all of them the same pointer, so the racing stores agree.
  std::unique_ptr<std::atomic<double*>[]> common_scalars_;
  std::unique_ptr<std::atomic<ArrayStore*>[]> common_arrays_;
  // This thread's kept ParDo pool, held for the run (null when serial).
  std::optional<ThreadPoolLease> lease_;
  ThreadPool* pool_ = nullptr;
  std::vector<Lane> lanes_;  // indexed by chunk; see run_pardo
  std::mutex output_mu_;
  std::string output_;
  // Lane counters, summed by the encountering thread after each join.
  uint64_t parallel_steps_ = 0;
  uint64_t parallel_insns_ = 0;

  void clear_overrides(VmCtx& ctx) const {
    ctx.scalar_ov.assign(m_.keys.size(), nullptr);
    ctx.array_ov.assign(m_.keys.size(), nullptr);
  }

  // ---- COMMON storage -----------------------------------------------------

  double* common_scalar(int32_t key, bool is_int) {
    std::atomic<double*>& slot = common_scalars_[static_cast<size_t>(key)];
    double* p = slot.load(std::memory_order_acquire);
    if (!p) {
      p = globals_.get_or_create_scalar(m_.keys[static_cast<size_t>(key)],
                                        is_int);
      slot.store(p, std::memory_order_release);
    }
    return p;
  }

  // The first toucher's declaration shapes the store, like the tree-walker.
  ArrayStore* common_array(int32_t key, const ArraySlot& as,
                           const std::array<int64_t, kMaxRank>& lower,
                           const std::array<int64_t, kMaxRank>& extent) {
    std::atomic<ArrayStore*>& slot = common_arrays_[static_cast<size_t>(key)];
    ArrayStore* p = slot.load(std::memory_order_acquire);
    if (!p) {
      size_t n = as.dims.size();
      // Assumed-size COMMON arrays are illegal; treat extent -1 as 1.
      std::vector<int64_t> lo(lower.begin(), lower.begin() + n);
      std::vector<int64_t> ce(extent.begin(), extent.begin() + n);
      for (auto& e : ce)
        if (e < 0) e = 1;
      p = globals_
              .get_or_create_array(m_.keys[static_cast<size_t>(key)], as.type,
                                   std::move(lo), std::move(ce))
              .get();
      slot.store(p, std::memory_order_release);
    }
    return p;
  }

  // ---- frames -------------------------------------------------------------

  // Push the frame for a call of `cu` at the next depth. The caller pops it
  // with a FrameGuard.
  VmFrame& enter(VmCtx& ctx, const CompiledUnit& cu) {
    if (ctx.depth == ctx.frames.size())
      ctx.frames.push_back(std::make_unique<VmFrame>());
    VmFrame& f = *ctx.frames[ctx.depth];
    init_frame(f, cu, ctx);
    ++ctx.depth;
    return f;
  }

  // Locals start at zero and arrays unbound on every call, as in a fresh
  // tree-walker frame. Local and PARAMETER slots keep pointing into `cells`
  // while the frame serves the same unit; formals are all rebound by the
  // call; COMMON slots are re-resolved, since the overrides in force
  // differ between a lane and the main thread.
  void init_frame(VmFrame& f, const CompiledUnit& cu, VmCtx& ctx) {
    const size_t ns = cu.scalars.size(), na = cu.arrays.size();
    if (f.cu != &cu) {
      f.cu = &cu;
      f.cells.resize(ns);
      f.scalar.resize(ns);
      f.scalar_int.resize(ns);
      for (size_t i = 0; i < ns; ++i) {
        f.scalar[i] = &f.cells[i];
        f.scalar_int[i] = cu.scalars[i].is_int ? 1 : 0;
      }
      f.arrays.resize(na);
      f.locals.resize(na);
      f.regs.resize(static_cast<size_t>(cu.num_regs));
    }
    std::fill(f.cells.begin(), f.cells.end(), 0.0);
    for (int32_t i : cu.common_scalars) {
      const ScalarSlot& s = cu.scalars[static_cast<size_t>(i)];
      double* ov = ctx.scalar_ov[static_cast<size_t>(s.common_key)];
      double* p = ov ? ov : common_scalar(s.common_key, s.is_int);
      // Unchanged entries are not rewritten, so lanes that read this frame
      // keep their cached copy of the table.
      if (f.scalar[static_cast<size_t>(i)] != p)
        f.scalar[static_cast<size_t>(i)] = p;
    }
    for (ArrayRec& rec : f.arrays) rec.data = nullptr;
  }

  void run_unit(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx) {
    exec_range(cu, f, ctx, f.regs.data(), cu.prologue, 0,
               static_cast<int32_t>(cu.prologue.size()));
    exec_range(cu, f, ctx, f.regs.data(), cu.code, 0,
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
    if (as.kind == ArrayKind::Common) {
      if (const ArrayRec* ov = ctx.array_ov[static_cast<size_t>(as.common_key)]) {
        rec.data = ov->data;
        rec.size = ov->size;
      } else {
        ArrayStore* store = common_array(as.common_key, as, lower, extent);
        rec.data = store->data();
        rec.size = static_cast<int64_t>(store->size());
      }
    } else {
      int64_t cells = 1;
      for (size_t i = 0; i < n; ++i) {
        if (extent[i] < 0)
          throw RtError{"local array " + as.name + " has assumed size"};
        cells *= extent[i] > 0 ? extent[i] : 1;  // ArrayStore's sizing
      }
      // Zeroed like a fresh store; the buffer's capacity is reused.
      std::vector<double>& buf = f.locals[static_cast<size_t>(slot)];
      buf.assign(static_cast<size_t>(cells), 0.0);
      rec.data = buf.data();
      rec.size = cells;
    }
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
    if (!rec.data)
      throw RtError{"array parameter " + as.name + " of " + cu.name +
                    " was not bound (argument mismatch)"};
    eval_dims(as, r, rec.lower, rec.extent);
    rec.rank = static_cast<int32_t>(as.dims.size());
    rec.is_int = as.is_int;
  }

  [[noreturn]] static void oob_error(const std::string& name,
                                     const int64_t* subs, int32_t rank) {
    std::string s = "subscript out of bounds: ";
    s += name;
    s += '(';
    for (int32_t i = 0; i < rank; ++i) {
      if (i) s += ',';
      s += std::to_string(subs[i]);
    }
    s += ')';
    throw RtError{std::move(s)};
  }

  // Checked linear offset of an access (ArrayView::cell semantics). Rank 1
  // and 2 take a straight-line path; whatever it rejects goes through the
  // general loop, which raises the error.
  static int64_t access_offset(const AccessDesc& acc, const ArrayRec& rec,
                               const RtVal* r, const std::string& name) {
    if (acc.rank == 1 && rec.rank == 1) {
      int64_t rel = sub_value(acc.subs[0], r) - rec.lower[0];
      int64_t e = rec.extent[0];
      int64_t off = rec.base + rel;
      if (rel >= 0 && (e < 0 || rel < e) && off >= 0 && off < rec.size)
        return off;
    } else if (acc.rank == 2 && rec.rank == 2) {
      int64_t rel0 = sub_value(acc.subs[0], r) - rec.lower[0];
      int64_t rel1 = sub_value(acc.subs[1], r) - rec.lower[1];
      int64_t e0 = rec.extent[0], e1 = rec.extent[1];
      if (rel0 >= 0 && (e0 < 0 || rel0 < e0) && rel1 >= 0 &&
          (e1 < 0 || rel1 < e1)) {
        int64_t off = rec.base + rel0 + rel1 * (e0 >= 0 ? e0 : 1);
        if (off >= 0 && off < rec.size) return off;
      }
    }
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
      if (d == acc.rank && off >= 0 && off < rec.size) return off;
    }
    oob_error(name, subs, acc.rank);
  }

  static const std::string& array_name(const CompiledUnit& cu,
                                       const AccessDesc& acc) {
    return cu.arrays[static_cast<size_t>(acc.array_slot)].name;
  }

  // The record an element instruction works on: the frame's array, or
  // with `priv` the lane's private array I.b. Faults like the tree-walker
  // when the array was never bound.
  static const ArrayRec& elem_array(const CompiledUnit& cu, const VmFrame& f,
                                    const VmCtx& ctx, const Insn& I,
                                    const AccessDesc& acc, bool priv,
                                    const char* what, const char* suffix) {
    const ArrayRec& rec = priv ? ctx.priv_arr[I.b]
                               : f.arrays[static_cast<size_t>(acc.array_slot)];
    if (!rec.data) throw RtError{what + array_name(cu, acc) + suffix};
    return rec;
  }

  // ---- parallel DO --------------------------------------------------------

  void run_pardo(const CompiledUnit& cu, VmFrame& f, VmCtx& ctx,
                 const ParDoPlan& plan, int64_t lo, int64_t hi) {
    // One chunk per lane, contiguous and in order (ThreadPool::parallel_for),
    // so lanes [0, nchunks) run and the last one runs the last iteration.
    const size_t nchunks =
        static_cast<size_t>(std::min<int64_t>(pool_->size(), hi - lo + 1));
    // Every chunk runs even when one faults; the chunks that finished count,
    // as the tree-walker's do.
    auto count = [&] {
      for (size_t t = 0; t < nchunks; ++t) {
        const Lane& L = lanes_[t];
        if (!L.done) continue;
        parallel_steps_ += static_cast<uint64_t>(ctx.steps_left - L.ctx.steps_left);
        parallel_insns_ += L.ctx.insns;
      }
    };
    try {
      pool_->parallel_for(lo, hi, [&](int64_t clo, int64_t chi, int tid) {
        run_chunk(cu, f, ctx, plan, lanes_[static_cast<size_t>(tid)], clo,
                  chi);
      });
    } catch (...) {
      count();
      throw;
    }
    count();

    // Last-value copy-out (sequential semantics for live-out privates).
    const Lane& last = lanes_[nchunks - 1];
    for (const PrivateSpec& p : plan.privates) {
      if (!p.is_array) {
        *f.scalar[static_cast<size_t>(p.slot)] =
            last.cells[static_cast<size_t>(p.live)];
        continue;
      }
      // Back into the store the encountering frame sees; for a COMMON array
      // that is the GlobalStore array, since no override is in force
      // outside a region.
      const std::vector<double>& src = last.buffers[static_cast<size_t>(p.cell)];
      const ArrayRec& rec = f.arrays[static_cast<size_t>(p.slot)];
      if (rec.data && rec.size == static_cast<int64_t>(src.size()))
        std::copy(src.begin(), src.end(), rec.data);
    }
    // Combine reductions deterministically in thread order.
    for (const ReductionSpec& rs : plan.reductions) {
      double* cell = f.scalar[static_cast<size_t>(rs.slot)];
      double acc = *cell;
      for (size_t t = 0; t < nchunks; ++t) {
        double v = lanes_[t].cells[static_cast<size_t>(rs.live)];
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

  // One lane's chunk [clo, chi] of the region: the lane body reads the
  // encountering frame `f` for everything shared and its own cells and
  // arrays for what the plan privatizes.
  void run_chunk(const CompiledUnit& cu, VmFrame& f, const VmCtx& ctx,
                 const ParDoPlan& plan, Lane& L, int64_t clo, int64_t chi) {
    // Share the step budget approximately (each lane gets the full
    // remainder; the guard is about runaway loops, not precise accounting).
    L.done = false;
    VmCtx& t = L.ctx;
    t.in_parallel = true;
    t.steps_left = ctx.steps_left;
    t.insns = 0;
    t.par_body = plan.lane_start;

    L.cells.resize(static_cast<size_t>(plan.num_cells));
    L.cell_int.resize(static_cast<size_t>(plan.num_cells));
    L.arrays.resize(static_cast<size_t>(plan.num_arrays));
    if (L.buffers.size() < L.arrays.size()) L.buffers.resize(L.arrays.size());
    for (const PrivateSpec& p : plan.privates) {
      const size_t k = static_cast<size_t>(p.cell);
      if (p.is_array) {
        // A private copy of the whole underlying store, seen through the
        // encountering frame's view of it.
        const ArrayRec& src = f.arrays[static_cast<size_t>(p.slot)];
        std::vector<double>& buf = L.buffers[k];
        buf.assign(src.data, src.data + src.size);
        L.arrays[k] = src;
        L.arrays[k].data = src.data ? buf.data() : nullptr;
        if (p.common_key >= 0)
          t.array_ov[static_cast<size_t>(p.common_key)] = &L.arrays[k];
      } else {
        L.cells[k] = *f.scalar[static_cast<size_t>(p.slot)];
        L.cell_int[k] = f.scalar_int[static_cast<size_t>(p.slot)];
        if (p.common_key >= 0)
          t.scalar_ov[static_cast<size_t>(p.common_key)] = &L.cells[k];
      }
    }
    for (const ReductionSpec& rs : plan.reductions) {
      L.cells[static_cast<size_t>(rs.cell)] = red_identity(rs.op);
      L.cell_int[static_cast<size_t>(rs.cell)] =
          f.scalar_int[static_cast<size_t>(rs.slot)];
    }
    double& iv = L.cells[static_cast<size_t>(plan.iv_cell)];
    L.cell_int[static_cast<size_t>(plan.iv_cell)] = 1;
    t.priv = L.cells.data();
    t.priv_int = L.cell_int.data();
    t.priv_arr = L.arrays.data();

    if (L.regs.size() < static_cast<size_t>(cu.num_regs))
      L.regs.resize(static_cast<size_t>(cu.num_regs));
    for (int64_t i = clo; i <= chi; ++i) {
      iv = static_cast<double>(i);
      exec_range(cu, f, t, L.regs.data(), cu.lane_code, plan.lane_start,
                 plan.lane_end);
    }

    for (const PrivateSpec& p : plan.privates) {
      if (p.common_key < 0) continue;
      if (p.is_array)
        t.array_ov[static_cast<size_t>(p.common_key)] = nullptr;
      else
        t.scalar_ov[static_cast<size_t>(p.common_key)] = nullptr;
    }
    L.done = true;
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
        case Op::LoadElem:
        case Op::LoadPrivElem: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          const ArrayRec& rec =
              elem_array(cu, f, ctx, I, acc, I.op == Op::LoadPrivElem,
                         "reference to undeclared array ", "");
          int64_t off = access_offset(acc, rec, r, array_name(cu, acc));
          r[I.a] = RtVal{rec.data[off], rec.is_int};
          break;
        }
        case Op::StoreElem:
        case Op::StorePrivElem: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          const ArrayRec& rec =
              elem_array(cu, f, ctx, I, acc, I.op == Op::StorePrivElem,
                         "assignment to undeclared array ", "");
          int64_t off = access_offset(acc, rec, r, array_name(cu, acc));
          rec.data[off] =
              rec.is_int ? static_cast<double>(r[I.a].as_int()) : r[I.a].v;
          break;
        }
        case Op::Addr:
        case Op::AddrPriv: {
          const AccessDesc& acc = m_.accesses[static_cast<size_t>(I.d)];
          const ArrayRec& rec =
              elem_array(cu, f, ctx, I, acc, I.op == Op::AddrPriv,
                         "actual array ", " unknown");
          int64_t off = access_offset(acc, rec, r, array_name(cu, acc));
          r[I.a] = RtVal::integer(off);
          break;
        }
        case Op::LoadPriv:
          r[I.a] = RtVal{ctx.priv[I.d], ctx.priv_int[I.d] != 0};
          break;
        case Op::StorePriv:
          ctx.priv[I.d] = ctx.priv_int[I.d]
                              ? static_cast<double>(r[I.a].as_int())
                              : r[I.a].v;
          break;
        case Op::StoreRawPriv:
          ctx.priv[I.d] = r[I.a].v;
          break;
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
    VmFrame& g = enter(ctx, callee);
    FrameGuard guard{ctx};
    // A private actual (lane bodies only) is the lane's cell or array.
    auto array_arg = [&](const CallArg& a) -> const ArrayRec& {
      return a.priv ? ctx.priv_arr[a.slot] : f.arrays[static_cast<size_t>(a.slot)];
    };
    for (size_t i = 0; i < plan.args.size(); ++i) {
      const CallArg& a = plan.args[i];
      switch (a.kind) {
        case ArgKind::ScalarPtr: {
          size_t fs = static_cast<size_t>(callee.formal_scalar_slot[i]);
          if (a.priv) {
            g.scalar[fs] = &ctx.priv[a.slot];
            g.scalar_int[fs] = ctx.priv_int[a.slot];
          } else {
            g.scalar[fs] = f.scalar[static_cast<size_t>(a.slot)];
            g.scalar_int[fs] = f.scalar_int[static_cast<size_t>(a.slot)];
          }
          break;
        }
        case ArgKind::ScalarElem: {
          size_t fs = static_cast<size_t>(callee.formal_scalar_slot[i]);
          const ArrayRec& rec = array_arg(a);
          g.scalar[fs] = rec.data + static_cast<int64_t>(r[a.reg].v);
          g.scalar_int[fs] = rec.is_int ? 1 : 0;
          break;
        }
        case ArgKind::ScalarValue: {
          size_t fs = static_cast<size_t>(callee.formal_scalar_slot[i]);
          g.cells[fs] = r[a.reg].v;
          g.scalar[fs] = &g.cells[fs];
          g.scalar_int[fs] = r[a.reg].is_int ? 1 : 0;
          break;
        }
        case ArgKind::ArrayWhole:
          g.arrays[static_cast<size_t>(callee.formal_array_slot[i])] =
              array_arg(a);
          break;
        case ArgKind::ArrayElem: {
          ArrayRec& rec =
              g.arrays[static_cast<size_t>(callee.formal_array_slot[i])];
          rec = array_arg(a);
          rec.base = static_cast<int64_t>(r[a.reg].v);
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

// One-pass compiler from the (reverse-inlined) FIR AST to the register
// bytecode of bytecode.h. See the header for the semantic contract; the
// reference implementation being mirrored is interp.cpp.
#include "interp/bytecode.h"

#include <map>
#include <utility>

#include "support/text.h"

namespace ap::interp::bc {

namespace {

bool implicit_int(const std::string& name) {
  return !name.empty() && name[0] >= 'I' && name[0] <= 'N';
}

// A compiled expression: either a folded constant or a register.
struct Operand {
  bool is_const = false;
  RtVal cst;
  int32_t reg = -1;

  static Operand constant(RtVal v) { return Operand{true, v, -1}; }
  static Operand in_reg(int32_t r) { return Operand{false, RtVal{}, r}; }
};

class UnitCompiler {
 public:
  UnitCompiler(Module& m, const fir::Program& prog,
               const std::map<std::string, int32_t>& unit_index,
               const fir::ProgramUnit& u, CompiledUnit& cu)
      : m_(m), prog_(prog), unit_index_(unit_index), u_(u), cu_(cu) {}

  void run() {
    cu_.name = u_.name;
    cu_.unit = &u_;
    build_slots();
    compile_prologue();
    out_ = &cu_.code;
    next_reg_ = 0;
    for (const auto& s : u_.body)
      if (s) compile_stmt(*s);
    emit({Op::Ret});
    cu_.num_regs = max_reg_;
  }

 private:
  Module& m_;
  const fir::Program& prog_;
  const std::map<std::string, int32_t>& unit_index_;
  const fir::ProgramUnit& u_;
  CompiledUnit& cu_;

  std::map<std::string, int32_t> scalar_slots_;
  std::map<std::string, int32_t> array_slots_;
  std::map<std::string, int32_t> common_key_of_;  // declared name -> key id
  std::vector<const fir::VarDecl*> array_decl_;   // per array slot
  std::vector<bool> array_dims_compiled_;

  std::vector<Insn>* out_ = nullptr;
  int32_t next_reg_ = 0;
  int32_t max_reg_ = 0;
  bool in_param_expr_ = false;

  struct LoopCtx {
    int32_t body_start;
    bool omp;
  };
  std::vector<LoopCtx> loops_;

  // While a lane body compiles: slot -> lane cell / private array index,
  // -1 where the slot stays shared.
  bool in_lane_ = false;
  std::vector<int32_t> lane_cell_, lane_array_;

  std::map<std::pair<uint64_t, bool>, int32_t> const_ids_;
  std::map<std::string, int32_t> string_ids_;

  // ---- small helpers ------------------------------------------------------

  size_t emit(Insn i) {
    out_->push_back(i);
    return out_->size() - 1;
  }
  Insn& at(size_t idx) { return (*out_)[idx]; }
  int32_t here() const { return static_cast<int32_t>(out_->size()); }

  int32_t alloc_reg() {
    int32_t r = next_reg_++;
    if (next_reg_ > max_reg_) max_reg_ = next_reg_;
    return r;
  }

  int32_t intern_const(RtVal v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v.v));
    __builtin_memcpy(&bits, &v.v, sizeof(bits));
    auto key = std::make_pair(bits, v.is_int);
    auto it = const_ids_.find(key);
    if (it != const_ids_.end()) return it->second;
    int32_t id = static_cast<int32_t>(m_.consts.size());
    m_.consts.push_back(v);
    const_ids_[key] = id;
    return id;
  }

  int32_t intern_string(const std::string& s) {
    auto it = string_ids_.find(s);
    if (it != string_ids_.end()) return it->second;
    int32_t id = static_cast<int32_t>(m_.strings.size());
    m_.strings.push_back(s);
    string_ids_[s] = id;
    return id;
  }

  int32_t key_id(const std::string& key, bool is_int) {
    for (size_t i = 0; i < m_.keys.size(); ++i)
      if (m_.keys[i] == key) return static_cast<int32_t>(i);
    m_.keys.push_back(key);
    m_.key_is_int.push_back(is_int);
    return static_cast<int32_t>(m_.keys.size() - 1);
  }

  int32_t materialize(const Operand& o) {
    if (!o.is_const) return o.reg;
    int32_t r = alloc_reg();
    emit({Op::LoadConst, r, 0, 0, intern_const(o.cst)});
    return r;
  }

  // Emit an Error instruction; the dummy constant keeps expression
  // compilation total (everything after the Error is unreachable).
  Operand error_op(const std::string& msg) {
    emit({Op::Error, 0, 0, 0, intern_string(msg)});
    return Operand::constant(RtVal::integer(0));
  }

  int32_t find_scalar(const std::string& n) const {
    auto it = scalar_slots_.find(n);
    return it == scalar_slots_.end() ? -1 : it->second;
  }
  int32_t find_array(const std::string& n) const {
    auto it = array_slots_.find(n);
    return it == array_slots_.end() ? -1 : it->second;
  }

  static int32_t lane_index(const std::vector<int32_t>& map, int32_t slot) {
    return slot >= 0 && static_cast<size_t>(slot) < map.size()
               ? map[static_cast<size_t>(slot)]
               : -1;
  }
  int32_t lane_cell(int32_t slot) const {
    return in_lane_ ? lane_index(lane_cell_, slot) : -1;
  }
  int32_t lane_array(int32_t slot) const {
    return in_lane_ ? lane_index(lane_array_, slot) : -1;
  }

  // Scalar slot and array element operations, in their lane-private form
  // when the lane body being compiled privatizes the slot.
  void emit_scalar(Op op, Op priv_op, int32_t reg, int32_t slot) {
    int32_t c = lane_cell(slot);
    emit(c >= 0 ? Insn{priv_op, reg, 0, 0, c} : Insn{op, reg, 0, 0, slot});
  }
  void emit_elem(Op op, Op priv_op, int32_t reg, int32_t slot, int32_t desc) {
    int32_t pa = lane_array(slot);
    emit(pa >= 0 ? Insn{priv_op, reg, pa, 0, desc} : Insn{op, reg, 0, 0, desc});
  }

  // Mirrors Frame::create_local_scalar: made exactly where the tree-walker
  // would create the name on first use (compile order == first-execution
  // order for the straight-line programs FIR has).
  int32_t create_scalar(const std::string& n) {
    ScalarSlot s;
    s.name = n;
    s.kind = ScalarKind::Local;
    s.is_int = implicit_int(n);
    cu_.scalars.push_back(std::move(s));
    int32_t id = static_cast<int32_t>(cu_.scalars.size() - 1);
    scalar_slots_[n] = id;
    return id;
  }

  // ---- slot construction --------------------------------------------------

  void build_slots() {
    // COMMON membership (declared names only, like make_frame's common_of).
    for (const auto& blk : u_.commons)
      for (const auto& v : blk.vars) {
        std::string name = fold_upper(v);
        const fir::VarDecl* d = u_.find_decl(name);
        bool is_int = d && d->type == fir::Type::Integer;
        common_key_of_[name] = key_id(blk.name + "/" + name, is_int);
      }

    // Formals, in parameter order.
    cu_.formal_scalar_slot.assign(u_.params.size(), -1);
    cu_.formal_array_slot.assign(u_.params.size(), -1);
    for (size_t i = 0; i < u_.params.size(); ++i) {
      std::string name = fold_upper(u_.params[i]);
      const fir::VarDecl* fd = u_.find_decl(name);
      if (fd && !fd->dims.empty()) {
        if (array_slots_.count(name)) {
          cu_.formal_array_slot[i] = array_slots_[name];
          continue;
        }
        ArraySlot a;
        a.name = name;
        a.kind = ArrayKind::Formal;
        a.type = fd->type;
        a.is_int = fd->type == fir::Type::Integer;
        a.formal_index = static_cast<int32_t>(i);
        cu_.formal_array_slot[i] = static_cast<int32_t>(cu_.arrays.size());
        array_slots_[name] = static_cast<int32_t>(cu_.arrays.size());
        cu_.arrays.push_back(std::move(a));
        array_decl_.push_back(fd);
        array_dims_compiled_.push_back(false);
      } else {
        if (scalar_slots_.count(name)) {
          cu_.formal_scalar_slot[i] = scalar_slots_[name];
          continue;
        }
        ScalarSlot s;
        s.name = name;
        s.kind = ScalarKind::Formal;
        s.is_int = fd ? fd->type == fir::Type::Integer : implicit_int(name);
        s.formal_index = static_cast<int32_t>(i);
        cu_.formal_scalar_slot[i] = static_cast<int32_t>(cu_.scalars.size());
        scalar_slots_[name] = static_cast<int32_t>(cu_.scalars.size());
        cu_.scalars.push_back(std::move(s));
      }
    }

    // Declarations.
    for (const auto& d : u_.decls) {
      if (d.is_param_const && d.param_value) {
        if (scalar_slots_.count(d.name)) continue;
        ScalarSlot s;
        s.name = d.name;
        s.kind = ScalarKind::Param;
        s.is_int = d.type == fir::Type::Integer;
        scalar_slots_[d.name] = static_cast<int32_t>(cu_.scalars.size());
        cu_.scalars.push_back(std::move(s));
        continue;
      }
      if (d.is_param_const) continue;
      if (d.dims.empty()) {
        if (scalar_slots_.count(d.name)) continue;  // bound formal
        ScalarSlot s;
        s.name = d.name;
        s.is_int = d.type == fir::Type::Integer;
        auto ck = common_key_of_.find(d.name);
        if (ck != common_key_of_.end()) {
          s.kind = ScalarKind::Common;
          s.common_key = ck->second;
        }
        scalar_slots_[d.name] = static_cast<int32_t>(cu_.scalars.size());
        cu_.scalars.push_back(std::move(s));
        continue;
      }
      if (array_slots_.count(d.name)) continue;  // bound formal array
      ArraySlot a;
      a.name = d.name;
      a.type = d.type;
      a.is_int = d.type == fir::Type::Integer;
      auto ck = common_key_of_.find(d.name);
      if (ck != common_key_of_.end()) {
        a.kind = ArrayKind::Common;
        a.common_key = ck->second;
      }
      array_slots_[d.name] = static_cast<int32_t>(cu_.arrays.size());
      cu_.arrays.push_back(std::move(a));
      array_decl_.push_back(&d);
      array_dims_compiled_.push_back(false);
    }
    // Slots made later (create_scalar) are always local.
    for (size_t i = 0; i < cu_.scalars.size(); ++i)
      if (cu_.scalars[i].kind == ScalarKind::Common)
        cu_.common_scalars.push_back(static_cast<int32_t>(i));
  }

  // ---- prologue -----------------------------------------------------------

  // Compile one declared dimension list into the slot's DimSpecs. Bound
  // values are converted with as_int at runtime (MakeArray/Reshape), so the
  // registers carry the raw evaluated values.
  void compile_dims(int32_t slot) {
    if (array_dims_compiled_[static_cast<size_t>(slot)]) return;
    array_dims_compiled_[static_cast<size_t>(slot)] = true;
    const fir::VarDecl* d = array_decl_[static_cast<size_t>(slot)];
    ArraySlot& a = cu_.arrays[static_cast<size_t>(slot)];
    if (d->dims.size() > static_cast<size_t>(kMaxRank)) {
      // F77 caps arrays at rank 7; the fixed-size access descriptors rely
      // on that, so anything beyond it faults before creation.
      error_op("array " + a.name + " exceeds the maximum rank of 7");
      return;
    }
    for (const auto& dim : d->dims) {
      DimSpec spec;
      if (dim.lo) {
        Operand lo = compile_expr(*dim.lo);
        spec.lo = lo.is_const ? SubRef{-1, lo.cst.as_int()}
                              : SubRef{materialize(lo), 0};
      }
      if (dim.hi) {
        Operand hi = compile_expr(*dim.hi);
        spec.hi = hi.is_const ? SubRef{-1, hi.cst.as_int()}
                              : SubRef{materialize(hi), 0};
      } else {
        spec.has_hi = false;
      }
      a.dims.push_back(spec);
    }
  }

  void compile_prologue() {
    out_ = &cu_.prologue;
    next_reg_ = 0;

    // PARAMETER constants, in declaration order (make_frame step 1). The
    // value is stored verbatim (no truncation), like the tree-walker.
    for (const auto& d : u_.decls) {
      if (!d.is_param_const || !d.param_value) continue;
      in_param_expr_ = true;
      Operand v = compile_expr(*d.param_value);
      in_param_expr_ = false;
      int32_t r = materialize(v);
      emit({Op::StoreRaw, r, 0, 0, find_scalar(d.name)});
    }

    // Non-formal arrays in declaration order (make_frame pass 2): dimension
    // evaluation interleaved with creation, so a later declaration's bounds
    // can read an earlier array's elements, exactly like the tree-walker.
    for (const auto& d : u_.decls) {
      if (d.is_param_const || d.dims.empty()) continue;
      int32_t slot = find_array(d.name);
      if (slot < 0) continue;
      if (cu_.arrays[static_cast<size_t>(slot)].kind == ArrayKind::Formal)
        continue;  // bound argument; reshaped below
      compile_dims(slot);
      emit({Op::MakeArray, 0, 0, 0, slot});
    }

    // Formal arrays, in parameter order (exec_call's reshape loop): the
    // bound caller view is re-shaped with the callee's declared (possibly
    // adjustable) dimensions once scalar formals are available.
    for (const auto& p : u_.params) {
      std::string formal = fold_upper(p);
      int32_t slot = find_array(formal);
      if (slot < 0) continue;
      if (cu_.arrays[static_cast<size_t>(slot)].kind != ArrayKind::Formal)
        continue;
      compile_dims(slot);
      emit({Op::Reshape, 0, 0, 0, slot});
    }
  }

  // ---- expressions --------------------------------------------------------

  Operand compile_expr(const fir::Expr& e) {
    using fir::ExprKind;
    switch (e.kind) {
      case ExprKind::IntLit: return Operand::constant(RtVal::integer(e.int_val));
      case ExprKind::RealLit: return Operand::constant(RtVal::real(e.real_val));
      case ExprKind::LogicalLit:
        return Operand::constant(RtVal::logical(e.logical_val));
      case ExprKind::StrLit:
        return error_op("string value in numeric context");
      case ExprKind::VarRef: return compile_var_ref(e);
      case ExprKind::ArrayRef: {
        if (find_array(e.name) < 0)
          return error_op("reference to undeclared array " + e.name);
        int32_t desc = compile_access(e);
        if (desc < 0) return Operand::constant(RtVal::integer(0));
        int32_t r = alloc_reg();
        emit_elem(Op::LoadElem, Op::LoadPrivElem, r, find_array(e.name), desc);
        return Operand::in_reg(r);
      }
      case ExprKind::Unary: {
        Operand v = compile_expr(*e.args[0]);
        switch (e.un_op) {
          case fir::UnOp::Plus: return v;
          case fir::UnOp::Neg:
            if (v.is_const) return Operand::constant(rt_neg(v.cst));
            return unary(Op::Neg, v);
          case fir::UnOp::Not:
            if (v.is_const) return Operand::constant(rt_not(v.cst));
            return unary(Op::NotOp, v);
        }
        return v;
      }
      case ExprKind::Binary: return compile_binary(e);
      case ExprKind::Intrinsic: return compile_intrinsic(e);
      case ExprKind::Unknown:
      case ExprKind::Unique:
        return error_op(
            "annotation operator reached execution: reverse inlining did not "
            "run (or failed) before interpretation");
      case ExprKind::Section:
        return error_op("array section in executable expression");
    }
    return error_op("unreachable expression kind");
  }

  Operand compile_var_ref(const fir::Expr& e) {
    int32_t slot = find_scalar(e.name);
    // PARAMETER values evaluate before COMMON scalars are bound: the
    // tree-walker reads a freshly created local zero there (make_frame's
    // ordering); reproduce that as a typed zero constant.
    if (in_param_expr_ && slot >= 0 &&
        cu_.scalars[static_cast<size_t>(slot)].kind == ScalarKind::Common)
      return Operand::constant(RtVal{0.0, implicit_int(e.name)});
    if (slot < 0) {
      if (find_array(e.name) >= 0)
        return error_op("whole-array reference to " + e.name +
                        " in executable expression");
      slot = create_scalar(e.name);
    }
    int32_t r = alloc_reg();
    emit_scalar(Op::LoadScalar, Op::LoadPriv, r, slot);
    return Operand::in_reg(r);
  }

  Operand unary(Op op, const Operand& v) {
    int32_t b = materialize(v);
    int32_t r = alloc_reg();
    emit({op, r, b});
    return Operand::in_reg(r);
  }

  Operand binary(Op op, const Operand& l, const Operand& r) {
    int32_t b = materialize(l);
    int32_t c = materialize(r);
    int32_t a = alloc_reg();
    emit({op, a, b, c});
    return Operand::in_reg(a);
  }

  // Fold when both sides are constant; an RtError during folding (integer
  // division by zero, MOD by zero) cancels the fold so the fault fires at
  // runtime, at the same point the tree-walker faults.
  template <typename Fn>
  Operand fold_or_binary(Op op, const Operand& l, const Operand& r, Fn fn) {
    if (l.is_const && r.is_const) {
      try {
        return Operand::constant(fn(l.cst, r.cst));
      } catch (const RtError&) {
      }
    }
    return binary(op, l, r);
  }

  Operand compile_binary(const fir::Expr& e) {
    using fir::BinOp;
    if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or)
      return compile_logical(e);
    Operand l = compile_expr(*e.args[0]);
    Operand r = compile_expr(*e.args[1]);
    switch (e.bin_op) {
      case BinOp::Add: return fold_or_binary(Op::Add, l, r, rt_add);
      case BinOp::Sub: return fold_or_binary(Op::Sub, l, r, rt_sub);
      case BinOp::Mul: return fold_or_binary(Op::Mul, l, r, rt_mul);
      case BinOp::Div: return fold_or_binary(Op::Div, l, r, rt_div);
      case BinOp::Pow: return fold_or_binary(Op::PowOp, l, r, rt_pow);
      case BinOp::Eq: return fold_or_binary(Op::CmpEq, l, r, rt_eq);
      case BinOp::Ne: return fold_or_binary(Op::CmpNe, l, r, rt_ne);
      case BinOp::Lt: return fold_or_binary(Op::CmpLt, l, r, rt_lt);
      case BinOp::Le: return fold_or_binary(Op::CmpLe, l, r, rt_le);
      case BinOp::Gt: return fold_or_binary(Op::CmpGt, l, r, rt_gt);
      case BinOp::Ge: return fold_or_binary(Op::CmpGe, l, r, rt_ge);
      default: return error_op("unhandled binary operator");
    }
  }

  Operand compile_logical(const fir::Expr& e) {
    bool is_and = e.bin_op == fir::BinOp::And;
    Operand l = compile_expr(*e.args[0]);
    if (l.is_const) {
      // Short-circuit decided at compile time: the tree-walker would not
      // evaluate the right side either.
      if (is_and && !l.cst.truthy())
        return Operand::constant(RtVal::logical(false));
      if (!is_and && l.cst.truthy())
        return Operand::constant(RtVal::logical(true));
      Operand r = compile_expr(*e.args[1]);
      if (r.is_const) return Operand::constant(RtVal::logical(r.cst.truthy()));
      int32_t out = alloc_reg();
      emit({Op::Bool, out, r.reg});
      return Operand::in_reg(out);
    }
    int32_t out = alloc_reg();
    size_t skip =
        emit({is_and ? Op::JumpIfFalse : Op::JumpIfTrue, l.reg, 0, 0, 0});
    Operand r = compile_expr(*e.args[1]);
    int32_t rr = materialize(r);
    emit({Op::Bool, out, rr});
    size_t done = emit({Op::Jump});
    at(skip).d = here();
    emit({Op::LoadBool, out, 0, 0, is_and ? 0 : 1});
    at(done).d = here();
    return Operand::in_reg(out);
  }

  template <typename Fn>
  Operand fold_or_unary_call(Op op, const fir::Expr& e, Fn fn) {
    Operand a = compile_expr(*e.args[0]);
    if (a.is_const) {
      try {
        return Operand::constant(fn(a.cst));
      } catch (const RtError&) {
      }
    }
    return unary(op, a);
  }

  Operand compile_intrinsic(const fir::Expr& e) {
    const std::string& n = e.name;
    bool is_min = n == "MIN" || n == "MIN0" || n == "AMIN1";
    bool is_max = n == "MAX" || n == "MAX0" || n == "AMAX1";
    if (is_min || is_max) {
      if (e.args.empty() || !e.args[0])
        return error_op("unimplemented intrinsic " + n);
      std::vector<Operand> vs;
      vs.reserve(e.args.size());
      bool all_const = true;
      for (const auto& a : e.args) {
        if (!a) return error_op("unimplemented intrinsic " + n);
        vs.push_back(compile_expr(*a));
        all_const = all_const && vs.back().is_const;
      }
      if (all_const) {
        RtVal best = vs[0].cst;
        for (size_t i = 1; i < vs.size(); ++i)
          best = is_min ? rt_min_step(best, vs[i].cst)
                        : rt_max_step(best, vs[i].cst);
        return Operand::constant(best);
      }
      int32_t acc = alloc_reg();
      if (vs[0].is_const)
        emit({Op::LoadConst, acc, 0, 0, intern_const(vs[0].cst)});
      else
        emit({Op::Move, acc, vs[0].reg});
      for (size_t i = 1; i < vs.size(); ++i) {
        int32_t v = materialize(vs[i]);
        emit({is_min ? Op::MinStep : Op::MaxStep, acc, v});
      }
      return Operand::in_reg(acc);
    }
    auto need = [&](size_t k) {
      if (e.args.size() < k) return false;
      for (size_t i = 0; i < k; ++i)
        if (!e.args[i]) return false;
      return true;
    };
    if (n == "MOD" || n == "DMOD") {
      if (!need(2)) return error_op("unimplemented intrinsic " + n);
      Operand a = compile_expr(*e.args[0]);
      Operand b = compile_expr(*e.args[1]);
      return fold_or_binary(Op::ModOp, a, b, rt_mod);
    }
    if (n == "SIGN") {
      if (!need(2)) return error_op("unimplemented intrinsic " + n);
      Operand a = compile_expr(*e.args[0]);
      Operand b = compile_expr(*e.args[1]);
      return fold_or_binary(Op::SignOp, a, b, rt_sign);
    }
    if (!need(1)) return error_op("unimplemented intrinsic " + n);
    if (n == "ABS" || n == "DABS") return fold_or_unary_call(Op::AbsOp, e, rt_abs);
    if (n == "IABS") return fold_or_unary_call(Op::IntAbs, e, rt_iabs);
    if (n == "SQRT" || n == "DSQRT") return fold_or_unary_call(Op::Sqrt, e, rt_sqrt);
    if (n == "EXP" || n == "DEXP") return fold_or_unary_call(Op::ExpOp, e, rt_exp);
    if (n == "LOG" || n == "DLOG") return fold_or_unary_call(Op::LogOp, e, rt_log);
    if (n == "SIN") return fold_or_unary_call(Op::Sin, e, rt_sin);
    if (n == "COS") return fold_or_unary_call(Op::Cos, e, rt_cos);
    if (n == "TAN") return fold_or_unary_call(Op::Tan, e, rt_tan);
    if (n == "DBLE" || n == "REAL" || n == "FLOAT")
      return fold_or_unary_call(Op::ToReal, e, rt_toreal);
    if (n == "INT") return fold_or_unary_call(Op::ToInt, e, rt_toint);
    if (n == "NINT") return fold_or_unary_call(Op::Nint, e, rt_nint);
    return error_op("unimplemented intrinsic " + n);
  }

  // Compile the subscripts of an ArrayRef into an access descriptor.
  // Returns -1 after emitting an Error instruction (missing subscript or
  // rank beyond kMaxRank).
  int32_t compile_access(const fir::Expr& e) {
    AccessDesc desc;
    desc.array_slot = find_array(e.name);
    desc.rank = static_cast<int32_t>(e.args.size());
    if (desc.rank > kMaxRank) {
      error_op("subscript out of bounds: " + e.name + "(...)");
      return -1;
    }
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (!e.args[i]) {
        error_op("missing subscript for " + e.name);
        return -1;
      }
      Operand s = compile_expr(*e.args[i]);
      desc.subs[i] = s.is_const ? SubRef{-1, s.cst.as_int()}
                                : SubRef{materialize(s), 0};
    }
    int32_t id = static_cast<int32_t>(m_.accesses.size());
    m_.accesses.push_back(desc);
    return id;
  }

  // ---- statements ---------------------------------------------------------

  void compile_stmt(const fir::Stmt& s) {
    int32_t reg_mark = next_reg_;
    emit({Op::Charge});
    using fir::StmtKind;
    switch (s.kind) {
      case StmtKind::Assign: compile_assign(s); break;
      case StmtKind::TupleAssign:
        error_op("tuple assignment reached execution");
        break;
      case StmtKind::Do: compile_do(s); break;
      case StmtKind::If: compile_if(s); break;
      case StmtKind::Call: compile_call(s); break;
      case StmtKind::Write: compile_write(s); break;
      case StmtKind::Stop:
        emit({Op::Stop, 0, 0, 0, intern_string(s.name)});
        break;
      case StmtKind::Return:
        if (loops_.empty()) {
          emit({Op::Ret});
        } else {
          const LoopCtx& l = loops_.back();
          emit({Op::ReturnInDo, 0, 0, l.omp ? 1 : 0, l.body_start});
        }
        break;
      case StmtKind::Continue: break;
      case StmtKind::TaggedRegion:
        error_op(
            "tagged annotation region reached execution: reverse inlining "
            "did not run before interpretation");
        break;
    }
    next_reg_ = reg_mark;
  }

  void compile_assign(const fir::Stmt& s) {
    Operand v = compile_expr(*s.rhs);
    const fir::Expr& lhs = *s.lhs[0];
    if (lhs.kind == fir::ExprKind::VarRef) {
      int32_t slot = find_scalar(lhs.name);
      if (slot < 0) {
        if (find_array(lhs.name) >= 0) {
          error_op("whole-array assignment to " + lhs.name +
                   " in executable code");
          return;
        }
        slot = create_scalar(lhs.name);
      }
      emit_scalar(Op::StoreScalar, Op::StorePriv, materialize(v), slot);
      return;
    }
    if (lhs.kind == fir::ExprKind::ArrayRef) {
      if (find_array(lhs.name) < 0) {
        error_op("assignment to undeclared array " + lhs.name);
        return;
      }
      int32_t src = materialize(v);
      int32_t desc = compile_access(lhs);
      if (desc < 0) return;
      emit_elem(Op::StoreElem, Op::StorePrivElem, src, find_array(lhs.name),
                desc);
      return;
    }
    error_op("unsupported assignment target");
  }

  void compile_if(const fir::Stmt& s) {
    Operand cond = compile_expr(*s.cond);
    if (cond.is_const) {
      const auto& taken = cond.cst.truthy() ? s.body : s.else_body;
      for (const auto& st : taken)
        if (st) compile_stmt(*st);
      return;
    }
    size_t jf = emit({Op::JumpIfFalse, cond.reg, 0, 0, 0});
    for (const auto& st : s.body)
      if (st) compile_stmt(*st);
    if (!s.else_body.empty()) {
      size_t done = emit({Op::Jump});
      at(jf).d = here();
      for (const auto& st : s.else_body)
        if (st) compile_stmt(*st);
      at(done).d = here();
    } else {
      at(jf).d = here();
    }
  }

  // Convert a DO bound to its integer value (eval(...).as_int()).
  int32_t int_bound_reg(const Operand& o) {
    if (o.is_const) {
      int32_t r = alloc_reg();
      emit({Op::LoadConst, r, 0, 0,
            intern_const(RtVal::integer(o.cst.as_int()))});
      return r;
    }
    int32_t r = alloc_reg();
    emit({Op::ToInt, r, o.reg});
    return r;
  }

  void compile_do(const fir::Stmt& s) {
    Operand lo = compile_expr(*s.do_lo);
    Operand hi = compile_expr(*s.do_hi);
    Operand step = s.do_step ? compile_expr(*s.do_step)
                             : Operand::constant(RtVal::integer(1));
    int32_t r_i = int_bound_reg(lo);  // doubles as the running i
    int32_t r_hi = int_bound_reg(hi);
    int32_t r_step = int_bound_reg(step);
    emit({Op::CheckStep, r_step});

    int32_t iv = find_scalar(s.do_var);
    if (iv < 0) iv = create_scalar(s.do_var);

    int32_t pardo = -1;
    if (s.omp.parallel && in_lane_) {
      // Inside a region a parallel loop runs serially: no plan, no lane
      // body, the ParDo only falls through.
      emit({Op::ParDo, r_i, r_hi, r_step, -1});
    } else if (s.omp.parallel) {
      pardo = static_cast<int32_t>(cu_.pardos.size());
      cu_.pardos.emplace_back();
      emit({Op::ParDo, r_i, r_hi, r_step, pardo});
    }

    int32_t head = here();
    size_t test = emit({Op::LoopTest, r_i, r_hi, r_step, 0});
    emit_scalar(Op::StoreRaw, Op::StoreRawPriv, r_i, iv);
    int32_t body_start = here();
    int32_t body_reg = next_reg_;
    loops_.push_back({body_start, s.omp.parallel});
    for (const auto& st : s.body)
      if (st) compile_stmt(*st);
    loops_.pop_back();
    emit({Op::LoopNext, r_i, 0, r_step, head});
    int32_t exit = here();
    at(test).d = exit;

    if (pardo >= 0) {
      ParDoPlan& plan = cu_.pardos[static_cast<size_t>(pardo)];
      plan.exit_pc = exit;
      plan.iv_slot = iv;
      for (const auto& p : s.omp.privates) {
        PrivateSpec spec;
        int32_t aslot = find_array(p);
        if (aslot >= 0) {
          spec.is_array = true;
          spec.slot = aslot;
          spec.common_key = cu_.arrays[static_cast<size_t>(aslot)].common_key;
        } else {
          int32_t sslot = find_scalar(p);
          if (sslot < 0) sslot = create_scalar(p);
          spec.slot = sslot;
          spec.common_key = cu_.scalars[static_cast<size_t>(sslot)].common_key;
        }
        plan.privates.push_back(spec);
      }
      for (const auto& r : s.omp.reductions) {
        ReductionSpec spec;
        int32_t slot = find_scalar(r.var);
        if (slot < 0) slot = create_scalar(r.var);
        spec.slot = slot;
        spec.op = r.op == "*" ? RedOp::Prod
                  : r.op == "MIN" ? RedOp::Min
                  : r.op == "MAX" ? RedOp::Max
                                  : RedOp::Sum;
        plan.reductions.push_back(spec);
      }
      compile_lane_body(s, plan, body_reg);
    }
  }

  // Compile the body of parallel loop `s` a second time, into lane_code,
  // with the plan's private, reduction and loop-variable slots redirected
  // to lane cells. Same statements, same registers, same instruction
  // count per iteration as the serial body: only the addressing differs.
  // `plan` stays valid: a lane body makes no plans.
  void compile_lane_body(const fir::Stmt& s, ParDoPlan& plan,
                         int32_t body_reg) {
    lane_cell_.assign(cu_.scalars.size(), -1);
    lane_array_.assign(cu_.arrays.size(), -1);
    int32_t cells = 0, arrays = 0;
    for (PrivateSpec& p : plan.privates) {
      p.cell = p.is_array ? arrays++ : cells++;
      (p.is_array ? lane_array_ : lane_cell_)[static_cast<size_t>(p.slot)] =
          p.cell;
    }
    for (ReductionSpec& r : plan.reductions) {
      r.cell = cells++;
      lane_cell_[static_cast<size_t>(r.slot)] = r.cell;
    }
    plan.iv_cell = cells++;
    lane_cell_[static_cast<size_t>(plan.iv_slot)] = plan.iv_cell;
    plan.num_cells = cells;
    plan.num_arrays = arrays;
    for (PrivateSpec& p : plan.privates)
      if (!p.is_array) p.live = lane_cell_[static_cast<size_t>(p.slot)];
    for (ReductionSpec& r : plan.reductions)
      r.live = lane_cell_[static_cast<size_t>(r.slot)];

    std::vector<Insn>* saved = out_;
    out_ = &cu_.lane_code;
    next_reg_ = body_reg;
    in_lane_ = true;
    plan.lane_start = here();
    loops_.push_back({plan.lane_start, true});
    for (const auto& st : s.body)
      if (st) compile_stmt(*st);
    loops_.pop_back();
    plan.lane_end = here();
    in_lane_ = false;
    out_ = saved;
  }

  void compile_call(const fir::Stmt& s) {
    auto ci = unit_index_.find(s.name);
    if (ci == unit_index_.end()) {
      error_op("CALL to undefined subroutine " + s.name);
      return;
    }
    const fir::ProgramUnit& callee = *prog_.units[static_cast<size_t>(ci->second)];
    if (callee.params.size() != s.args.size()) {
      error_op("argument count mismatch calling " + s.name);
      return;
    }
    CallPlan plan;
    plan.callee = ci->second;
    for (size_t i = 0; i < callee.params.size(); ++i) {
      std::string formal = fold_upper(callee.params[i]);
      const fir::VarDecl* fd = callee.find_decl(formal);
      bool formal_array = fd && !fd->dims.empty();
      const fir::Expr& actual = *s.args[i];
      CallArg arg;
      if (formal_array) {
        if (actual.kind == fir::ExprKind::VarRef) {
          int32_t aslot = find_array(actual.name);
          if (aslot < 0) {
            error_op("actual " + actual.name + " for array formal " + formal +
                     " is not an array");
            return;
          }
          arg.kind = ArgKind::ArrayWhole;
          lane_array_arg(arg, aslot);
        } else if (actual.kind == fir::ExprKind::ArrayRef) {
          int32_t aslot = find_array(actual.name);
          if (aslot < 0) {
            error_op("actual array " + actual.name + " unknown");
            return;
          }
          int32_t desc = compile_access(actual);
          if (desc < 0) return;
          int32_t addr = alloc_reg();
          emit_elem(Op::Addr, Op::AddrPriv, addr, aslot, desc);
          arg.kind = ArgKind::ArrayElem;
          lane_array_arg(arg, aslot);
          arg.reg = addr;
        } else {
          error_op("cannot pass expression to array formal " + formal);
          return;
        }
      } else {
        if (actual.kind == fir::ExprKind::VarRef) {
          int32_t slot = find_scalar(actual.name);
          if (slot < 0) slot = create_scalar(actual.name);
          arg.kind = ArgKind::ScalarPtr;
          int32_t c = lane_cell(slot);
          arg.slot = c >= 0 ? c : slot;
          arg.priv = c >= 0;
        } else if (actual.kind == fir::ExprKind::ArrayRef) {
          int32_t aslot = find_array(actual.name);
          if (aslot < 0) {
            error_op("actual array " + actual.name + " unknown");
            return;
          }
          int32_t desc = compile_access(actual);
          if (desc < 0) return;
          int32_t addr = alloc_reg();
          emit_elem(Op::Addr, Op::AddrPriv, addr, aslot, desc);
          arg.kind = ArgKind::ScalarElem;
          lane_array_arg(arg, aslot);
          arg.reg = addr;
        } else {
          Operand v = compile_expr(actual);
          arg.kind = ArgKind::ScalarValue;
          arg.reg = materialize(v);
        }
      }
      plan.args.push_back(arg);
    }
    int32_t id = static_cast<int32_t>(cu_.calls.size());
    cu_.calls.push_back(std::move(plan));
    emit({Op::Call, 0, 0, 0, id});
  }

  void lane_array_arg(CallArg& arg, int32_t aslot) const {
    int32_t pa = lane_array(aslot);
    arg.slot = pa >= 0 ? pa : aslot;
    arg.priv = pa >= 0;
  }

  void compile_write(const fir::Stmt& s) {
    WritePlan plan;
    for (const auto& a : s.args) {
      WriteItem item;
      if (a->kind == fir::ExprKind::StrLit) {
        item.str = intern_string(a->str_val);
      } else {
        Operand v = compile_expr(*a);
        item.reg = materialize(v);
      }
      plan.items.push_back(item);
    }
    int32_t id = static_cast<int32_t>(cu_.writes.size());
    cu_.writes.push_back(std::move(plan));
    emit({Op::Write, 0, 0, 0, id});
  }
};

}  // namespace

Module compile(const fir::Program& prog) {
  Module m;
  std::map<std::string, int32_t> unit_index;
  for (size_t i = 0; i < prog.units.size(); ++i)
    unit_index.emplace(prog.units[i]->name, static_cast<int32_t>(i));

  m.units.resize(prog.units.size());
  for (size_t i = 0; i < prog.units.size(); ++i) {
    UnitCompiler uc(m, prog, unit_index, *prog.units[i], m.units[i]);
    uc.run();
    if (prog.units[i]->kind == fir::UnitKind::Program)
      m.main_unit = static_cast<int32_t>(i);
  }
  return m;
}

}  // namespace ap::interp::bc

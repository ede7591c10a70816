#include "analysis/scalars.h"

#include "support/text.h"

namespace ap::analysis {

std::vector<std::string> ScalarClassification::blockers() const {
  std::vector<std::string> out;
  for (const auto& [n, i] : scalars)
    if (i.kind == ScalarKind::Blocker) out.push_back(n);
  return out;
}

std::vector<std::string> ScalarClassification::privates() const {
  std::vector<std::string> out;
  for (const auto& [n, i] : scalars)
    if (i.kind == ScalarKind::Private || i.kind == ScalarKind::InnerIndex)
      out.push_back(n);
  return out;
}

namespace {

// Per-scalar summary of one region (statement list).
struct RegionFacts {
  bool uncovered_read = false;  // a read not preceded by a must-write
  bool must_write = false;      // written on every path through the region
  bool any_write = false;
};

class ScalarScanner {
 public:
  ScalarScanner(const sema::UnitInfo& unit,
                const std::function<bool(const fir::Stmt&)>& trip_ge1)
      : unit_(unit), trip_ge1_(trip_ge1) {}

  std::map<std::string, RegionFacts> scan(const std::vector<fir::StmtPtr>& body) {
    std::map<std::string, RegionFacts> facts;
    for (const auto& s : body)
      if (s) seq_combine(facts, stmt(*s));
    return facts;
  }

 private:
  const sema::UnitInfo& unit_;
  const std::function<bool(const fir::Stmt&)>& trip_ge1_;

  bool is_scalar(const std::string& name) const {
    const sema::SymbolInfo* s = unit_.find(name);
    return !s || !s->is_array();
  }

  // Sequential composition: B executes after A.
  static void seq_combine(std::map<std::string, RegionFacts>& a,
                          const std::map<std::string, RegionFacts>& b) {
    for (const auto& [name, fb] : b) {
      RegionFacts& fa = a[name];
      if (!fa.must_write && fb.uncovered_read) fa.uncovered_read = true;
      fa.must_write = fa.must_write || fb.must_write;
      fa.any_write = fa.any_write || fb.any_write;
    }
  }

  // Branch merge for IF.
  static std::map<std::string, RegionFacts> branch_merge(
      const std::map<std::string, RegionFacts>& t,
      const std::map<std::string, RegionFacts>& e) {
    std::map<std::string, RegionFacts> out = t;
    for (auto& [name, f] : out) {
      auto it = e.find(name);
      f.must_write = f.must_write && it != e.end() && it->second.must_write;
      if (it != e.end()) {
        f.uncovered_read = f.uncovered_read || it->second.uncovered_read;
        f.any_write = f.any_write || it->second.any_write;
      }
    }
    for (const auto& [name, f] : e) {
      if (out.count(name)) continue;
      RegionFacts nf = f;
      nf.must_write = false;  // other branch did not write
      out[name] = nf;
    }
    return out;
  }

  void record_reads(const fir::Expr& e, std::map<std::string, RegionFacts>& f) {
    fir::walk_expr_tree(e, [&](const fir::Expr& x) {
      if (x.kind == fir::ExprKind::VarRef && is_scalar(x.name)) {
        RegionFacts& rf = f[x.name];
        if (!rf.must_write) rf.uncovered_read = true;
      }
      // Array subscripts recurse automatically via walk_expr_tree.
    });
  }

  std::map<std::string, RegionFacts> stmt(const fir::Stmt& s) {
    std::map<std::string, RegionFacts> f;
    switch (s.kind) {
      case fir::StmtKind::Assign:
      case fir::StmtKind::TupleAssign: {
        if (s.rhs) record_reads(*s.rhs, f);
        for (const auto& l : s.lhs) {
          if (!l) continue;
          if (l->kind == fir::ExprKind::VarRef && is_scalar(l->name)) {
            RegionFacts& rf = f[l->name];
            rf.must_write = true;
            rf.any_write = true;
          } else if (l->kind == fir::ExprKind::ArrayRef) {
            for (const auto& sub : l->args)
              if (sub) record_reads(*sub, f);
          }
        }
        return f;
      }
      case fir::StmtKind::Do: {
        if (s.do_lo) record_reads(*s.do_lo, f);
        if (s.do_hi) record_reads(*s.do_hi, f);
        if (s.do_step) record_reads(*s.do_step, f);
        // The DO variable is written by the loop header.
        if (is_scalar(s.do_var)) {
          f[s.do_var].must_write = true;
          f[s.do_var].any_write = true;
        }
        auto body = scan(s.body);
        // A zero-trip loop writes nothing: demote must-writes unless the
        // loop provably runs.
        bool runs = trip_ge1_ && trip_ge1_(s);
        for (auto& [name, bf] : body)
          if (!runs) bf.must_write = false;
        seq_combine(f, body);
        return f;
      }
      case fir::StmtKind::If: {
        if (s.cond) record_reads(*s.cond, f);
        auto t = scan(s.body);
        auto e = scan(s.else_body);
        seq_combine(f, branch_merge(t, e));
        return f;
      }
      case fir::StmtKind::Call: {
        // Conservative: a call may read and write its arguments and any
        // global; loops containing calls are rejected earlier, but keep the
        // facts safe anyway.
        for (const auto& a : s.args)
          if (a) record_reads(*a, f);
        return f;
      }
      case fir::StmtKind::Write:
        for (const auto& a : s.args)
          if (a) record_reads(*a, f);
        return f;
      case fir::StmtKind::TaggedRegion: {
        auto b = scan(s.body);
        seq_combine(f, b);
        return f;
      }
      case fir::StmtKind::Stop:
      case fir::StmtKind::Return:
      case fir::StmtKind::Continue:
        return f;
    }
    return f;
  }
};

// Does `name` appear anywhere outside reduction statements of itself?
struct ReductionCheck {
  std::string op;    // normalized op
  bool valid = true;
  int count = 0;
};

void check_reduction(const std::vector<fir::StmtPtr>& body,
                     const std::string& name, ReductionCheck& rc,
                     const sema::UnitInfo& unit) {
  auto mentions = [&](const fir::Expr& e) {
    bool found = false;
    fir::walk_expr_tree(e, [&](const fir::Expr& x) {
      if (x.kind == fir::ExprKind::VarRef && x.name == name) found = true;
    });
    return found;
  };
  for (const auto& sp : body) {
    if (!sp || !rc.valid) return;
    const fir::Stmt& s = *sp;
    // A reduction statement: name = name OP expr  |  name = MIN/MAX(name, e)
    bool is_red_stmt = false;
    if (s.kind == fir::StmtKind::Assign && s.lhs.size() == 1 && s.lhs[0] &&
        s.lhs[0]->kind == fir::ExprKind::VarRef && s.lhs[0]->name == name &&
        s.rhs) {
      const fir::Expr& r = *s.rhs;
      const char* op = "";
      const fir::Expr* self = nullptr;
      const fir::Expr* other = nullptr;
      if (r.kind == fir::ExprKind::Binary &&
          (r.bin_op == fir::BinOp::Add || r.bin_op == fir::BinOp::Sub ||
           r.bin_op == fir::BinOp::Mul)) {
        op = (r.bin_op == fir::BinOp::Mul) ? "*" : "+";
        const fir::Expr* l = r.args[0].get();
        const fir::Expr* rr = r.args[1].get();
        if (l && l->kind == fir::ExprKind::VarRef && l->name == name) {
          self = l;
          other = rr;
        } else if (rr && rr->kind == fir::ExprKind::VarRef && rr->name == name &&
                   r.bin_op != fir::BinOp::Sub) {
          self = rr;
          other = l;
        }
      } else if (r.kind == fir::ExprKind::Intrinsic &&
                 (ieq(r.name, "MIN") || ieq(r.name, "MAX") ||
                  ieq(r.name, "AMIN1") || ieq(r.name, "AMAX1") ||
                  ieq(r.name, "MIN0") || ieq(r.name, "MAX0")) &&
                 r.args.size() == 2) {
        op = (r.name.find("MAX") != std::string::npos) ? "MAX" : "MIN";
        const fir::Expr* l = r.args[0].get();
        const fir::Expr* rr = r.args[1].get();
        if (l && l->kind == fir::ExprKind::VarRef && l->name == name) {
          self = l;
          other = rr;
        } else if (rr && rr->kind == fir::ExprKind::VarRef && rr->name == name) {
          self = rr;
          other = l;
        }
      }
      if (self && other && !mentions(*other)) {
        if (rc.count == 0) rc.op = op;
        if (rc.op != op) {
          rc.valid = false;
          return;
        }
        ++rc.count;
        is_red_stmt = true;
      }
    }
    if (!is_red_stmt) {
      // Any other mention of the scalar kills the reduction.
      bool touched = false;
      fir::walk_exprs(s, [&](const fir::Expr& x) {
        if (x.kind == fir::ExprKind::VarRef && x.name == name) touched = true;
      });
      if (s.kind == fir::StmtKind::Do && s.do_var == name) touched = true;
      if (touched) {
        rc.valid = false;
        return;
      }
      check_reduction(s.body, name, rc, unit);
      check_reduction(s.else_body, name, rc, unit);
    }
  }
}

}  // namespace

ScalarClassification classify_scalars(
    const fir::Stmt& loop, const sema::UnitInfo& unit,
    const std::function<bool(const fir::Stmt&)>& trip_at_least_one) {
  ScalarClassification out;

  // Inner loop indices are always private.
  std::map<std::string, bool> inner_index;
  fir::walk_stmts(loop.body, [&](const fir::Stmt& s) {
    if (s.kind == fir::StmtKind::Do) inner_index[s.do_var] = true;
    return true;
  });

  ScalarScanner scanner(unit, trip_at_least_one);
  auto facts = scanner.scan(loop.body);

  for (const auto& [name, f] : facts) {
    if (name == loop.do_var) continue;
    const sema::SymbolInfo* sym = unit.find(name);
    if (sym && sym->is_array()) continue;  // arrays handled elsewhere
    ScalarInfo info;
    if (inner_index.count(name)) {
      info.kind = ScalarKind::InnerIndex;
    } else if (!f.any_write) {
      info.kind = ScalarKind::ReadOnly;
    } else {
      ReductionCheck rc;
      check_reduction(loop.body, name, rc, unit);
      if (rc.valid && rc.count > 0) {
        info.kind = ScalarKind::Reduction;
        info.reduction_op = rc.op;
      } else if (!f.uncovered_read && f.must_write) {
        info.kind = ScalarKind::Private;
      } else {
        info.kind = ScalarKind::Blocker;
      }
    }
    out.scalars[name] = info;
  }
  return out;
}

}  // namespace ap::analysis

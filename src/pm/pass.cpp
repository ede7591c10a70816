#include "pm/pass.h"

#include <chrono>

#include "fir/unparse.h"
#include "support/fnv.h"

namespace ap::pm {

bool PassManager::has_pass(std::string_view name) const {
  for (const auto& p : passes_)
    if (p->name() == name) return true;
  return false;
}

bool PassManager::run(PassState& st) {
  records_.clear();
  error_.clear();
  print_dump_.clear();
  stopped_early_ = false;
  seq_fp_ = kFnvOffset;
  vopts_ = VerifyOptions{};

  for (const std::string* flag : {&opts_.stop_after, &opts_.print_after}) {
    if (!flag->empty() && !has_pass(*flag)) {
      error_ = "unknown pass name '" + *flag + "'";
      return false;
    }
  }

  for (const auto& pass : passes_) {
    bool ok = run_one(*pass, st);
    // The pass is part of the executed prefix from the moment it ran —
    // fold AFTER run_one so its own probe saw the prior prefix.
    seq_fp_ = fnv1a(seq_fp_, pass->name());
    seq_fp_ = fnv1a(seq_fp_, std::string_view("\0", 1));
    if (!ok) return false;
    if (!opts_.print_after.empty() && pass->name() == opts_.print_after &&
        st.program)
      print_dump_ = fir::unparse(*st.program);
    if (!opts_.stop_after.empty() && pass->name() == opts_.stop_after) {
      stopped_early_ = &pass != &passes_.back();
      break;
    }
  }
  return true;
}

bool PassManager::run_one(Pass& pass, PassState& st) {
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();

  PassRecord rec;
  rec.name = std::string(pass.name());
  size_t diags_before = st.diags ? st.diags->all().size() : 0;

  if (pass.kind() == PassKind::WholeProgram) {
    pass.run(st);
  } else {
    pass.begin(st);
    if (!st.failed && st.program) {
      auto& units = st.program->units;
      int64_t n = static_cast<int64_t>(units.size());
      rec.units = static_cast<int>(n);
      std::vector<DiagnosticEngine> unit_diags(units.size());
      if (st.diags)
        for (auto& d : unit_diags) d.set_stream(st.diags->stream());

      // Artifact protocol: when the pass snapshots and a store is
      // attached, probe every unit in one call before the fan-out.
      // Outcomes are recorded per unit and aggregated after the fan-out
      // so the counters are deterministic under any lane interleaving.
      bool snap = opts_.artifacts && pass.snapshotable();
      enum class Outcome : uint8_t {
        kNone,  // not enrolled (no probe, or probe said not participating)
        kHit,
        kMiss,
        kInvalidated,
      };
      std::vector<Outcome> outcomes(units.size(), Outcome::kNone);
      uint64_t prefix_fp = seq_fp_;
      std::vector<ArtifactProbe> probes;
      if (snap) {
        std::vector<std::string> names;
        names.reserve(units.size());
        for (const auto& u : units) names.push_back(u->name);
        probes = opts_.artifacts->find_units(pass.name(), prefix_fp, names);
        probes.resize(units.size());  // a short answer probes as absent
      }

      auto run_unit = [&](int64_t i) {
        auto idx = static_cast<size_t>(i);
        fir::ProgramUnit& unit = *units[idx];
        if (snap) {
          ArtifactProbe& probe = probes[idx];
          if (probe.participating) {
            if (probe.payload &&
                pass.restore_unit_artifact(unit, idx, *probe.payload)) {
              outcomes[idx] = Outcome::kHit;
              return;  // restored — skip the recompute entirely
            }
            outcomes[idx] =
                probe.invalidated ? Outcome::kInvalidated : Outcome::kMiss;
          }
        }
        pass.run_unit(unit, idx, unit_diags[idx]);
        if (snap && outcomes[idx] != Outcome::kNone) {
          std::string payload = pass.snapshot_unit_artifact(unit, idx);
          if (!payload.empty())
            opts_.artifacts->store_unit(pass.name(), prefix_fp, unit.name,
                                        payload);
        }
      };
      if (opts_.pool && opts_.pool->size() > 1 && n > 1) {
        opts_.pool->for_each_index(n, [&](int64_t i, int) { run_unit(i); });
      } else {
        for (int64_t i = 0; i < n; ++i) run_unit(i);
      }
      for (Outcome o : outcomes) {
        switch (o) {
          case Outcome::kNone:
            break;
          case Outcome::kHit:
            ++rec.unit_hits;
            break;
          case Outcome::kInvalidated:
            ++rec.unit_invalidated;
            [[fallthrough]];
          case Outcome::kMiss:
            ++rec.unit_misses;
            break;
        }
      }
      // Deterministic merge: unit-index order, independent of which lane
      // finished first.
      if (st.diags)
        for (auto& d : unit_diags) st.diags->merge(std::move(d));
    }
    if (!st.failed) pass.end(st);
  }

  rec.diagnostics =
      static_cast<int>((st.diags ? st.diags->all().size() : 0) - diags_before);
  rec.wall_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  records_.push_back(std::move(rec));

  if (st.failed) {
    error_ = st.error;
    return false;
  }

  if (opts_.verify && st.program) {
    pass.adjust_verify(vopts_);
    std::string v = verify_program(*st.program, vopts_);
    if (v.empty()) v = pass.verify_after(*st.program);
    if (!v.empty()) {
      error_ = "verifier failed after pass '" + std::string(pass.name()) +
               "': " + v;
      st.fail(error_);
      return false;
    }
  }
  return true;
}

}  // namespace ap::pm

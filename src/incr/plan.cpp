#include "incr/plan.h"

#include <algorithm>
#include <vector>

#include "fir/parser.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/unit_cache.h"
#include "support/diagnostics.h"
#include "support/fnv.h"

namespace ap::incr {

IncrPlan make_plan(std::string_view source, std::string_view annotations,
                   DepMode mode) {
  DiagnosticEngine diags;
  auto prog = fir::parse_program(source, diags);
  if (!prog) return {};  // the pipeline will report the parse error
  return make_plan(*prog, source, annotations, mode);
}

IncrPlan make_plan(const fir::Program& prog, std::string_view source,
                   std::string_view annotations, DepMode mode) {
  IncrPlan plan;

  SourceFingerprints fps = fingerprint_units(source, annotations);
  if (!fps.ok) return plan;

  UnitDepGraph g = build_dep_graph(prog, mode);

  // The token-level split must name exactly the parsed units, in order —
  // otherwise a fingerprint could be attributed to the wrong unit.
  if (fps.units.size() != g.names.size()) return plan;
  for (size_t i = 0; i < g.names.size(); ++i)
    if (fps.units[i].name != g.names[i]) return plan;

  for (size_t i = 0; i < g.names.size(); ++i) {
    // Sorted (name, fp) pairs over the closure: deterministic regardless of
    // unit order or traversal.
    std::vector<size_t> closure(g.closure[i].begin(), g.closure[i].end());
    std::sort(closure.begin(), closure.end(), [&](size_t a, size_t b) {
      return g.names[a] < g.names[b];
    });
    uint64_t h = kFnvOffset;
    h = fnv_u64(h, kUnitCacheFormatVersion);
    // The unit's own name first: two units sharing one dependence closure
    // (e.g. an all-to-all COMMON clique) must still key separately, or
    // their snapshots would overwrite each other under a single key.
    h = fnv1a(h, g.names[i]);
    h = fnv1a(h, std::string_view("\0", 1));
    for (size_t j : closure) {
      h = fnv1a(h, g.names[j]);
      h = fnv1a(h, std::string_view("\0", 1));
      h = fnv_u64(h, fps.units[j].fp);
    }
    plan.entries.emplace(g.names[i],
                         PlanEntry{h, fps.units[i].fp});
  }
  plan.usable = true;
  return plan;
}

}  // namespace ap::incr

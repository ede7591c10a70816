// The incremental plan for one compile request: a closure fingerprint per
// unit.
//
//   key(U) = FNV( kUnitCacheFormatVersion,
//                 U's own name,
//                 (name, fingerprint) of every unit in closure(U),
//                 sorted by name )
//
// where closure(U) is U's transitive CALL/COMMON dependence closure over
// the parse of the ORIGINAL source (incr/depgraph.h — directed COMMON
// edges by default), and the fingerprints are the token-stream hashes of
// incr/fingerprint.h (own annotations folded in). Editing unit V therefore
// changes the keys of exactly V and its transitive dependents — the
// dependence-aware invalidation rule is purely structural, with nothing to
// expire.
//
// The key deliberately covers CONTENT only. The per-boundary artifact
// layer (incr/artifacts.h) folds in everything else that scopes a cached
// payload — the pass name, the pass-sequence prefix fingerprint, and the
// boundary's semantic option hash — so one plan serves every snapshotting
// pass in the pipeline.
//
// The plan is built from (source, annotations) and their parse, before
// any transformation — the pipeline's parse pass hands over its own
// program before an inliner touches it, so a compile parses once — and
// consulted by name at snapshot time: the post-inline
// program's units are a subset of the source units (inlining and dead-unit
// elimination only remove or rewrite-in-place), and a post-inline unit's
// content is a function of its pre-inline closure (the inliners' fresh
// name and tag counters are per-unit deterministic for exactly this
// reason).
//
// When the token-level split disagrees with the real parse (defensive;
// e.g. a variable shadowing a unit-header keyword), the plan is unusable
// and the pipeline compiles every unit — slower, never wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "incr/depgraph.h"

namespace ap::incr {

struct PlanEntry {
  uint64_t key = 0;     // dependence-closure content hash
  uint64_t own_fp = 0;  // the unit's own fingerprint (miss classification)
};

struct IncrPlan {
  bool usable = false;
  std::map<std::string, PlanEntry> entries;  // by unit name

  const PlanEntry* find(const std::string& name) const {
    auto it = entries.find(name);
    return it == entries.end() ? nullptr : &it->second;
  }
};

// Builds the plan over closure(U) per `mode`. Directed mode shrinks
// closures on read-only COMMON sharers; Bidirectional reproduces the
// historical symmetric rule (verification mode — results are bit-identical
// either way, only hit rates differ).
IncrPlan make_plan(std::string_view source, std::string_view annotations,
                   DepMode mode = DepMode::Directed);

// The same plan over `prog`, which must be the untransformed parse of
// `source` (the pipeline's parse pass output).
IncrPlan make_plan(const fir::Program& prog, std::string_view source,
                   std::string_view annotations,
                   DepMode mode = DepMode::Directed);

}  // namespace ap::incr

// The production pm::ArtifactStore: binds one compile request's IncrPlan
// (content-closure keys, incr/plan.h) to the process-wide UnitCache.
//
// Full key for a (pass, unit) artifact:
//
//   key = FNV( plan-entry key            — closure content hash,
//              boundary option hash      — the options that shape this
//                                          boundary's output,
//              pass-sequence prefix fp   — which passes ran before,
//              pass name )
//
// Only enrolled boundaries participate: the driver registers each
// snapshotting pass with its option hash (enroll()), so e.g. the
// normalize boundary is keyed by the inliner+normalize options while the
// parallelize boundary is keyed by the whole pipeline hash. A pass not
// enrolled probes as not-participating and the manager runs it normally
// with zero counters.
//
// When the plan is unusable (defensive token-split mismatch) or a unit is
// unknown to it, the probe still reports participating=true with no
// payload: every unit counts as a miss, preserving the historical
// "plan unusable → all misses" accounting, and nothing is stored.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "incr/plan.h"
#include "pm/pass.h"

namespace ap::incr {

class UnitCache;

class PassArtifacts : public pm::ArtifactStore {
 public:
  // `cache` may be null (e.g. CLI run without a cache): every probe is
  // then not-participating.
  explicit PassArtifacts(UnitCache* cache) : cache_(cache) {}

  // The request's plan, built from the parse pass's program before any
  // boundary probes; until it is set every unit is a plain miss.
  void set_plan(IncrPlan plan) { plan_ = std::move(plan); }

  // Registers `pass_name` as a snapshot boundary keyed by `opts_hash`.
  void enroll(const std::string& pass_name, uint64_t opts_hash) {
    boundaries_[pass_name] = opts_hash;
  }

  // One UnitCache::find_many for every unit the plan knows, so the
  // boundary's local misses reach the fleet in one lookup.
  std::vector<pm::ArtifactProbe> find_units(
      std::string_view pass_name, uint64_t prefix_fp,
      const std::vector<std::string>& unit_names) override;
  void store_unit(std::string_view pass_name, uint64_t prefix_fp,
                  const std::string& unit_name,
                  const std::string& payload) override;

 private:
  // 0 when the boundary is not enrolled or the plan has no entry.
  uint64_t full_key(std::string_view pass_name, uint64_t prefix_fp,
                    const PlanEntry& entry, uint64_t opts_hash) const;

  IncrPlan plan_;
  UnitCache* cache_;
  std::map<std::string, uint64_t, std::less<>> boundaries_;  // name -> hash
};

}  // namespace ap::incr

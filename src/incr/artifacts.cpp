#include "incr/artifacts.h"

#include "incr/unit_cache.h"
#include "support/fnv.h"

namespace ap::incr {

uint64_t PassArtifacts::full_key(std::string_view pass_name,
                                 uint64_t prefix_fp, const PlanEntry& entry,
                                 uint64_t opts_hash) const {
  uint64_t h = entry.key;
  h = fnv_u64(h, opts_hash);
  h = fnv_u64(h, prefix_fp);
  h = fnv1a(h, pass_name);
  return h;
}

std::vector<pm::ArtifactProbe> PassArtifacts::find_units(
    std::string_view pass_name, uint64_t prefix_fp,
    const std::vector<std::string>& unit_names) {
  std::vector<pm::ArtifactProbe> probes(unit_names.size());
  if (!cache_) return probes;
  auto bit = boundaries_.find(pass_name);
  if (bit == boundaries_.end()) return probes;

  // Units the plan does not know (or an unusable plan) stay plain misses.
  std::vector<UnitQuery> queries;
  std::vector<size_t> asked;  // queries[j] answers unit_names[asked[j]]
  for (size_t i = 0; i < unit_names.size(); ++i) {
    probes[i].participating = true;
    const PlanEntry* entry = plan_.usable ? plan_.find(unit_names[i]) : nullptr;
    if (!entry) continue;
    queries.push_back(
        {full_key(pass_name, prefix_fp, *entry, bit->second), entry->own_fp});
    asked.push_back(i);
  }
  if (queries.empty()) return probes;

  std::vector<UnitFindResult> found = cache_->find_many(bit->first, queries);
  for (size_t j = 0; j < asked.size(); ++j) {
    pm::ArtifactProbe& probe = probes[asked[j]];
    UnitFindResult& r = found[j];
    probe.invalidated = r.invalidated;
    probe.payload = std::move(r.payload);
  }
  return probes;
}

void PassArtifacts::store_unit(std::string_view pass_name, uint64_t prefix_fp,
                               const std::string& unit_name,
                               const std::string& payload) {
  if (!cache_) return;
  auto bit = boundaries_.find(pass_name);
  if (bit == boundaries_.end()) return;
  const PlanEntry* entry = plan_.usable ? plan_.find(unit_name) : nullptr;
  if (!entry) return;
  uint64_t key = full_key(pass_name, prefix_fp, *entry, bit->second);
  cache_->store(bit->first, key, entry->own_fp, payload);
}

}  // namespace ap::incr

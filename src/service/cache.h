// Content-addressed result cache for the compilation service.
//
// The cache key is a 64-bit FNV-1a hash over everything that can change a
// compilation's outcome: the unparsed source text, the annotation text,
// a canonical fingerprint of every PipelineOptions field, and a format
// version constant. Any edit to source, annotations, or configuration
// therefore produces a different key — invalidation is purely structural,
// there is nothing to expire (the dist-clang model).
//
// Two tiers:
//   memory — LRU over deserialized CompileResult values, bounded by entry
//            count; hit cost is a map lookup plus a list splice.
//   disk   — optional, under `disk_dir`: one `<hex-key>.apc` file per
//            entry, written on store and promoted into the memory tier on
//            hit. Survives process restarts (warm service restarts, CI
//            reruns). Entries are only superseded, never stale; an
//            optional byte budget (`disk_max_bytes`, default unlimited)
//            evicts oldest-mtime files on store so a long-lived daemon
//            cannot grow the tier without bound.
//
// Only successful compilations are cached; failures re-run so their
// diagnostics stay fresh.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "driver/pipeline.h"
#include "support/disk_budget.h"

namespace ap::service {

// The cacheable outcome of one pipeline run: everything the batch report
// and telemetry need, with the final program carried as unparsed text
// (re-parseable, trivially serializable, bit-stable).
struct CompileResult {
  bool ok = false;
  std::string error;
  bool cache_hit = false;  // set by the scheduler, not serialized
  bool peer_hit = false;   // miss served by the peer tier; not serialized
  std::set<int64_t> parallel_loops;
  size_t code_lines = 0;
  size_t dep_tests = 0;         // logical pairwise tests
  size_t dep_tests_unique = 0;  // tests actually executed (memoized pass)
  driver::PipelineTimings timings;  // of the original (miss) compilation
  std::string program_text;         // unparsed final program
  std::string print_dump;           // --print-after capture ("" when unset)
  bool stopped_early = false;       // --stop-after cut the sequence short

  // Unit-tier outcome of the compiling run (src/incr) at the parallelize
  // boundary: per-request, like cache_hit, so not serialized — a
  // whole-request hit did no unit work and reports zeros.
  size_t unit_hits = 0;
  size_t unit_misses = 0;
  size_t unit_invalidated = 0;   // misses caused by a changed dependency
  // Always 0, on no wire and in no file: apbench still reads it, and the
  // benchmark change that drops its dist.unit_peer_frac removes it.
  size_t unit_peer_hits = 0;
};

// Build a CompileResult from a finished pipeline run (unparses the final
// program when present).
CompileResult to_compile_result(const driver::PipelineResult& r);

// Content hash of (source, annotations, options). Stable across runs and
// platforms; bump kCacheFormatVersion when CompileResult serialization or
// pipeline semantics change.
inline constexpr uint32_t kCacheFormatVersion = 5;

uint64_t cache_key(std::string_view source, std::string_view annotations,
                   const driver::PipelineOptions& opts);

// Canonical one-line fingerprint of every PipelineOptions field (part of
// the key; exposed for tests and telemetry).
std::string options_fingerprint(const driver::PipelineOptions& opts);

// Serialization for the disk tier and the fleet's cache_fill/cache_probe
// payloads (exposed for tests). The decoder reads untrusted bytes (a peer's
// frame, a file anyone could have written): it rejects malformed input,
// never throws, and never allocates more than the input's own size for a
// length it reads.
std::string serialize_result(const CompileResult& r);
std::optional<CompileResult> deserialize_result(std::string_view text);

struct CacheStats {
  uint64_t memory_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;       // memory-tier LRU evictions
  uint64_t disk_evictions = 0;  // disk files removed by the byte budget
  uint64_t disk_bytes = 0;      // current on-disk tier size
  uint64_t hits() const { return memory_hits + disk_hits; }
  uint64_t lookups() const { return hits() + misses; }
};

class ResultCache {
 public:
  // `capacity` bounds the memory tier (entry count, >= 1); `disk_dir`
  // enables the disk tier when non-empty (created on demand).
  // `disk_max_bytes` caps the disk tier: when a store pushes the tier past
  // the budget, oldest-mtime entries are removed until it fits (the entry
  // just stored is never evicted by its own store). 0 = unlimited,
  // preserving historical behavior. Pre-existing files in `disk_dir` are
  // counted against the budget at construction.
  explicit ResultCache(size_t capacity = 256, std::string disk_dir = "",
                       size_t disk_max_bytes = 0);

  // Thread-safe. On hit the entry becomes most-recently-used; disk hits
  // are promoted into the memory tier.
  std::optional<CompileResult> find(uint64_t key);

  // Thread-safe memory-tier-only probe: never touches disk, so it is safe
  // on a latency-critical thread (the server's event loop answers warm
  // hits with it). A miss is NOT counted — the caller falls back to the
  // full find(), which accounts the outcome.
  std::optional<CompileResult> find_memory(uint64_t key);

  // Thread-safe. Stores under `key`, evicting the least-recently-used
  // memory entry at capacity; mirrors to disk when enabled. Failed
  // results (!r.ok) are ignored.
  void store(uint64_t key, const CompileResult& r);

  CacheStats stats() const;
  size_t memory_entries() const;
  const std::string& disk_dir() const { return disk_dir_; }

 private:
  void insert_memory_locked(uint64_t key, const CompileResult& r);
  std::string disk_path(uint64_t key) const;

  const size_t capacity_;
  const std::string disk_dir_;
  std::optional<support::DiskBudget> budget_;  // set iff the disk tier is on

  mutable std::mutex mu_;
  // MRU-first list; map values point into it.
  std::list<std::pair<uint64_t, CompileResult>> lru_;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, CompileResult>>::iterator>
      index_;
  CacheStats stats_;
};

}  // namespace ap::service

// Unit-level artifact store: opaque per-unit snapshots keyed by the
// pass-boundary key the artifact layer computes (incr/artifacts.h —
// closure content hash x boundary option hash x pass-sequence prefix).
// One boundary snapshots: parallelize ("APUNIT" payloads, below).
// The cache itself never interprets a payload; the pass serializes and
// restores its own state, and correctness never rests on the restore — a
// payload that fails to apply is simply recomputed.
//
// One tier: a process-local LRU over payload strings, bounded by entry
// count. Payloads never leave the process, so a restore only ever reads
// bytes this process wrote. A miss is the caller's cue to recompute.
//
// Entries are only ever superseded — a changed input changes the key — so
// there is no staleness.
//
// Miss classification: the cache remembers the last key stored per
// (boundary, unit fingerprint). A miss whose fingerprint was seen before
// under a different key means the unit itself is unchanged but a
// dependency changed — counted as invalidated_by_dep (the telemetry that
// proves the invalidation rule touches only the dependence closure). The
// memory is tied to the LRU: an entry goes when the key it names is
// evicted, so it never outgrows `capacity` however many edits a daemon
// serves.
// Stats are kept per boundary label so telemetry can show WHERE in the
// pipeline edits resume.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fir/ast.h"
#include "par/parallelizer.h"

namespace ap::incr {

inline constexpr uint32_t kUnitCacheFormatVersion = 2;

// ---------------------------------------------------------------------------
// The parallelize boundary's payload: OMP marks by pre-order DO index plus
// the unit's ParallelizeResult (verdicts, blockers, dependence-test
// counters) so merged diagnostics and telemetry are bit-identical to a
// cold compile.
// ---------------------------------------------------------------------------

// One DO loop's OMP metadata, addressed by pre-order DO index in the unit.
struct OmpMark {
  size_t do_index = 0;
  fir::OmpInfo omp;
};

struct UnitSnapshot {
  size_t do_count = 0;           // total DO statements (apply-time check)
  std::vector<OmpMark> marks;    // loops carrying non-default OMP state
  // origin_id of every DO in pre-order at snapshot time: apply remaps the
  // stored verdicts onto the CURRENT parse's ids so an edit elsewhere in
  // the program that renumbers loops cannot leave stale ids behind.
  std::vector<int64_t> origin_ids;
  par::ParallelizeResult par;    // this unit's verdicts + counters
};

// The OMP marks currently on `unit` (non-default OmpInfo only), with
// do_count and the pre-order origin_id list filled in.
UnitSnapshot snapshot_unit(const fir::ProgramUnit& unit,
                           const par::ParallelizeResult& par);

// Re-applies `snap`'s marks onto a freshly normalized `unit`, remapping
// the snapshot's verdict origin_ids onto the unit's current ids (see
// UnitSnapshot::origin_ids — `snap` is mutated). Returns false (leaving
// the unit untouched) when the DO shape does not match — the caller
// recomputes; correctness never rests on the apply.
bool apply_snapshot(fir::ProgramUnit& unit, UnitSnapshot& snap);

// The payload text the memory tier holds (exposed for tests).
std::string serialize_snapshot(const UnitSnapshot& snap);
std::optional<UnitSnapshot> deserialize_snapshot(std::string_view text);

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

struct IncrStats {
  uint64_t memory_hits = 0;
  uint64_t misses = 0;              // includes invalidated_by_dep
  uint64_t invalidated_by_dep = 0;  // miss, own unit unchanged, dep changed
  uint64_t stores = 0;
  uint64_t evictions = 0;  // LRU evictions
  uint64_t hits() const { return memory_hits; }
  uint64_t lookups() const { return hits() + misses; }
  void add(const IncrStats& o);
};

struct UnitFindResult {
  std::optional<std::string> payload;  // nullopt = miss
  bool invalidated = false;  // miss; own unit unchanged, dependency changed
};

// One key of a lookup; `own_fp` is the unit's own fingerprint, used only
// to classify a miss (see header comment).
struct UnitQuery {
  uint64_t key = 0;
  uint64_t own_fp = 0;
};

class UnitCache {
 public:
  // `capacity` bounds the LRU (entry count, >= 1).
  explicit UnitCache(size_t capacity = 4096);

  // Thread-safe. One boundary's lookups: results[i] answers queries[i].
  // `boundary` is the snapshotting pass's name (stats bucket).
  std::vector<UnitFindResult> find_many(const std::string& boundary,
                                        const std::vector<UnitQuery>& queries);
  // One-key find_many.
  UnitFindResult find(const std::string& boundary, uint64_t key,
                      uint64_t own_fp);

  // Thread-safe. Stores under `key`.
  void store(const std::string& boundary, uint64_t key, uint64_t own_fp,
             const std::string& payload);

  IncrStats stats() const;  // aggregate over boundaries
  std::map<std::string, IncrStats> boundary_stats() const;
  size_t memory_entries() const;
  // (boundary, fingerprint) pairs remembered for miss classification;
  // never more than memory_entries().
  size_t fingerprint_entries() const;

 private:
  // An entry names the (boundary, fingerprint) it was stored under, so its
  // eviction can drop that pair from last_key_by_fp_ when the pair still
  // points at it.
  struct Entry {
    uint64_t key = 0;
    std::string payload;
    std::string boundary;
    uint64_t own_fp = 0;
  };
  using Lru = std::list<Entry>;

  // Drops e's (boundary, fingerprint) pair if it still names e.key.
  void forget_pair_locked(const Entry& e);

  const size_t capacity_;

  mutable std::mutex mu_;
  Lru lru_;  // MRU first
  std::unordered_map<uint64_t, Lru::iterator> index_;
  // (boundary, unit fingerprint) -> last stored key, for miss
  // classification. Bounded by the LRU (see Entry).
  std::map<std::string, std::unordered_map<uint64_t, uint64_t>>
      last_key_by_fp_;
  std::map<std::string, IncrStats> stats_;  // by boundary
};

}  // namespace ap::incr

// Unit-level artifact store: opaque per-unit snapshots keyed by the
// pass-boundary key the artifact layer computes (incr/artifacts.h —
// closure content hash x boundary option hash x pass-sequence prefix), one
// keyspace shared by every snapshotting pass. The cache itself never
// interprets a payload; each pass serializes and restores its own state
// ("APUNIT ..." for the parallelize boundary, "APUSER ..." for the
// normalize boundary) and correctness never rests on the restore — a
// payload that fails to apply is simply recomputed.
//
// Four tiers, probed in order:
//   memory — LRU over payload strings, bounded by entry count;
//   disk   — optional, under `<cache-dir>/units/` with one `<hex-key>.apu`
//            file per artifact (dist-clang's file_cache shape), written
//            atomically (temp + rename). When a support::DiskBudget is
//            attached, every write is charged against the shared
//            --cache-max-mb budget and can evict (or be evicted by) the
//            whole-request tier's files;
//   peer   — optional hook (set_peer_lookup): a lookup answers every key
//            it was asked from memory+disk under the mutex, then asks the
//            fleet ONCE, outside the mutex, for all the keys it missed
//            (wire v7 unit_probe carries the key list); peer payloads are
//            adopted into memory+disk. The symmetric store hook hands
//            fresh artifacts to the fleet (unit_fill).
//   (recompute — the caller's job.)
//
// Entries are only ever superseded — a changed input changes the key — so
// there is no staleness.
//
// Miss classification: the cache remembers the last key stored per
// (boundary, unit fingerprint). A miss whose fingerprint was seen before
// under a different key means the unit itself is unchanged but a
// dependency changed — counted as invalidated_by_dep (the telemetry that
// proves the invalidation rule touches only the dependence closure). The
// memory is tied to the memory tier: an entry goes when the key it names
// is evicted, so it never outgrows `capacity` however many edits a daemon
// serves.
// Stats are kept per boundary so telemetry can show WHERE in the pipeline
// edits resume.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fir/ast.h"
#include "par/parallelizer.h"

namespace ap::support {
class DiskBudget;
}

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

// Serialization for the disk tier (exposed for tests).
std::string serialize_snapshot(const UnitSnapshot& snap);
std::optional<UnitSnapshot> deserialize_snapshot(std::string_view text);

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

struct IncrStats {
  uint64_t memory_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t peer_hits = 0;           // misses served by a fleet peer
  uint64_t misses = 0;              // includes invalidated_by_dep
  uint64_t invalidated_by_dep = 0;  // miss, own unit unchanged, dep changed
  uint64_t stores = 0;
  uint64_t evictions = 0;  // memory-tier LRU evictions
  uint64_t hits() const { return memory_hits + disk_hits + peer_hits; }
  uint64_t lookups() const { return hits() + misses; }
  void add(const IncrStats& o);
};

// Which tier satisfied a find; None = miss.
enum class UnitTier : uint8_t { None, Memory, Disk, Peer };

struct UnitFindResult {
  std::optional<std::string> payload;
  UnitTier tier = UnitTier::None;
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
  // `capacity` bounds the memory tier (entry count, >= 1); `disk_dir`
  // enables the disk tier when non-empty (created on demand). `budget`
  // (optional, not owned) charges disk writes against a byte budget
  // shared with other tiers; the cache registers `disk_dir` with it.
  explicit UnitCache(size_t capacity = 4096, std::string disk_dir = "",
                     support::DiskBudget* budget = nullptr);

  // Fleet hooks. The lookup is called once per find_many that missed
  // memory+disk, with every missed key, OUTSIDE the cache mutex (it does
  // network I/O); it answers one slot per key, in key order (nullopt = no
  // peer holds it). The store hook runs after every local store
  // (replication), also outside the mutex. Neither is called for adopted
  // peer payloads — no recursion.
  using PeerLookup = std::function<std::vector<std::optional<std::string>>(
      const std::string& boundary, const std::vector<uint64_t>& keys)>;
  using StoreHook = std::function<void(const std::string& boundary,
                                       uint64_t key,
                                       const std::string& payload)>;
  void set_peer_lookup(PeerLookup fn);
  void set_store_hook(StoreHook fn);

  // Thread-safe. One boundary's lookups: results[i] answers queries[i].
  // `boundary` is the snapshotting pass's name (stats bucket). At most one
  // peer lookup, for the keys memory and disk both missed.
  std::vector<UnitFindResult> find_many(const std::string& boundary,
                                        const std::vector<UnitQuery>& queries);
  // One-key find_many.
  UnitFindResult find(const std::string& boundary, uint64_t key,
                      uint64_t own_fp);

  // Thread-safe. Stores under `key`; mirrors to disk when enabled, then
  // fires the store hook.
  void store(const std::string& boundary, uint64_t key, uint64_t own_fp,
             const std::string& payload);

  // Peer-serving probe (wire unit_probe): memory+disk by key, no miss
  // accounting, never consults the peer hook.
  std::optional<std::string> peek(uint64_t key);

  // Accepts a payload pushed by a peer (wire unit_fill): memory+disk, no
  // store-hook recursion, no fingerprint bookkeeping.
  void adopt(const std::string& boundary, uint64_t key,
             const std::string& payload);

  IncrStats stats() const;  // aggregate over boundaries
  std::map<std::string, IncrStats> boundary_stats() const;
  size_t memory_entries() const;
  // (boundary, fingerprint) pairs remembered for miss classification;
  // never more than memory_entries().
  size_t fingerprint_entries() const;
  const std::string& disk_dir() const { return disk_dir_; }

 private:
  // A memory-tier entry. A locally stored one also names the (boundary,
  // fingerprint) it was stored under, so its eviction can drop that pair
  // from last_key_by_fp_ when the pair still points at it.
  struct Entry {
    uint64_t key = 0;
    std::string payload;
    std::string boundary;  // "" = adopted or disk/peer-served: no pair
    uint64_t own_fp = 0;
  };
  using Lru = std::list<Entry>;

  std::string disk_path(uint64_t key) const;
  Lru::iterator insert_memory_locked(uint64_t key, const std::string& payload);
  // Drops e's (boundary, fingerprint) pair if it still names e.key.
  void forget_pair_locked(const Entry& e);
  void write_disk_locked(uint64_t key, const std::string& payload);
  std::optional<std::string> probe_local_locked(const std::string& boundary,
                                                uint64_t key, UnitTier* tier);

  const size_t capacity_;
  const std::string disk_dir_;
  support::DiskBudget* budget_;  // not owned; may be null

  mutable std::mutex mu_;
  Lru lru_;  // MRU first
  std::unordered_map<uint64_t, Lru::iterator> index_;
  // (boundary, unit fingerprint) -> last stored key, for miss
  // classification. Bounded by the memory tier (see Entry).
  std::map<std::string, std::unordered_map<uint64_t, uint64_t>>
      last_key_by_fp_;
  std::map<std::string, IncrStats> stats_;  // by boundary
  PeerLookup peer_lookup_;
  StoreHook store_hook_;
};

}  // namespace ap::incr

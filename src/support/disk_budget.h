// A byte budget shared by every disk cache tier that writes under a
// common --cache-dir: the whole-request tier (service::ResultCache,
// `<dir>/*.apc`) and the unit-artifact tier (incr::UnitCache,
// `<dir>/units/*.apu`) register their directories here, and every store
// charges the budget. When the combined footprint exceeds the cap the
// budget evicts oldest-mtime files ACROSS ALL registered directories
// (path tie-break for determinism) until it fits again — so unit
// snapshots can no longer grow unbounded outside the --cache-max-mb
// accounting, and a burst of unit stores can push out stale whole-request
// entries just as the reverse can.
//
// Accounting is per registered (directory, extension) pair; pre-existing
// files are counted at registration (warm restarts). The file whose store
// triggered an eviction pass is exempt, so a store can never evict its
// own payload. Eviction re-walks the registered directories, which also
// re-synchronizes the counters against files another process added or
// removed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ap::support {

// Atomic publish of one disk-tier entry: writes `payload` to a temp file
// named uniquely for this writer (process id plus a process-wide
// sequence), then renames it over `path` only if the whole write
// succeeded; on any failure the temp file is removed and false returned.
// Writers sharing a directory — threads, cache instances, processes —
// never write the same temp file, so a reader sees the complete old entry
// or the complete new one, never a torn or interleaved one. A writer that
// dies mid-store leaves its temp file behind; DiskBudget removes such
// files once they are older than kOrphanTempAge.
bool publish_file(const std::string& path, std::string_view payload);

inline constexpr std::chrono::minutes kOrphanTempAge{10};

class DiskBudget {
 public:
  // `max_bytes` caps the combined size of every registered directory;
  // 0 = unlimited (accounting still runs, nothing is ever evicted).
  explicit DiskBudget(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  // Registers a directory whose files with `ext` (e.g. ".apc") count
  // toward the budget; scans pre-existing files immediately, removing
  // publish_file temp files older than kOrphanTempAge. Idempotent for an
  // already-registered pair.
  void add_dir(const std::string& dir, const std::string& ext);

  // Accounts a file (re)written at `path` inside a registered directory:
  // `old_bytes` (the size the previous version had, 0 when new) leaves the
  // budget, `new_bytes` enters it, and oldest-mtime files are evicted
  // until the total fits. `path` itself is never evicted by this call.
  // Thread-safe; returns the number of files removed.
  size_t charge(const std::string& path, uint64_t old_bytes,
                uint64_t new_bytes);

  uint64_t max_bytes() const { return max_bytes_; }
  uint64_t used_bytes() const;
  // Current byte count attributed to one registered directory.
  uint64_t dir_bytes(const std::string& dir) const;
  // Files evicted from one registered directory (cumulative).
  uint64_t dir_evictions(const std::string& dir) const;
  uint64_t evictions() const;

 private:
  struct Dir {
    std::string ext;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
  };

  // Finds the registered directory containing `path` (longest prefix
  // match so nested dirs — `<dir>` and `<dir>/units` — resolve
  // correctly). Returns nullptr for unregistered paths.
  Dir* dir_of_locked(const std::string& path);
  size_t evict_locked(const std::string& keep_path);

  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::map<std::string, Dir> dirs_;  // by directory path
};

}  // namespace ap::support

// The byte budget of one disk cache directory — the whole-request result
// tier (service::ResultCache, `<cache-dir>/*.apc`), which owns it. Every
// store charges the budget; when the directory's footprint exceeds the
// cap, the budget evicts oldest-mtime files (path tie-break for
// determinism) until it fits again. Pre-existing files are counted at
// construction (warm restarts). The file whose store triggered an
// eviction pass is exempt, so a store can never evict its own payload.
// Eviction re-walks the directory, which also re-synchronizes the counter
// against files another process added or removed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

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

// Not thread-safe: the owning cache calls it under its own mutex.
class DiskBudget {
 public:
  // Accounts files with extension `ext` (e.g. ".apc") in `dir`, counting
  // the ones already there and removing publish_file temp files older
  // than kOrphanTempAge. `max_bytes` caps their combined size; 0 =
  // unlimited (accounting still runs, nothing is ever evicted).
  DiskBudget(std::string dir, std::string ext, uint64_t max_bytes);

  // Accounts a file (re)written at `path` inside the directory:
  // `old_bytes` (the size the previous version had, 0 when new) leaves the
  // budget, `new_bytes` enters it, and oldest-mtime files are evicted
  // until the total fits. `path` itself is never evicted by this call.
  // Returns the number of files removed.
  size_t charge(const std::string& path, uint64_t old_bytes,
                uint64_t new_bytes);

  uint64_t max_bytes() const { return max_bytes_; }
  uint64_t used_bytes() const { return bytes_; }
  uint64_t evictions() const { return evictions_; }  // cumulative

 private:
  size_t evict(const std::string& keep_path);

  const std::string dir_;
  const std::string ext_;
  const uint64_t max_bytes_;
  uint64_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace ap::support

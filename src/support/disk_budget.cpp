#include "support/disk_budget.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <vector>

namespace ap::support {

namespace fs = std::filesystem;

namespace {

constexpr char kTempInfix[] = ".tmp.";

// A publish_file temp file left by a writer that died mid-store: no live
// writer keeps one for anywhere near kOrphanTempAge.
bool is_orphan_temp(const fs::directory_entry& entry) {
  if (entry.path().filename().string().find(kTempInfix) == std::string::npos)
    return false;
  std::error_code ec;
  auto mtime = fs::last_write_time(entry.path(), ec);
  return !ec && fs::file_time_type::clock::now() - mtime > kOrphanTempAge;
}

}  // namespace

bool publish_file(const std::string& path, std::string_view payload) {
  static std::atomic<uint64_t> seq{0};
  std::string tmp = path;
  tmp += kTempInfix;
  tmp += std::to_string(::getpid());
  tmp += '.';
  tmp += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  f.close();  // a failed open, write or close leaves `f` false
  std::error_code ec;
  if (f) {
    fs::rename(tmp, path, ec);
    if (!ec) return true;
  }
  fs::remove(tmp, ec);
  return false;
}

DiskBudget::DiskBudget(std::string dir, std::string ext, uint64_t max_bytes)
    : dir_(std::move(dir)), ext_(std::move(ext)), max_bytes_(max_bytes) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::error_code rec;
    if (is_orphan_temp(entry)) fs::remove(entry.path(), rec);
    if (entry.path().extension() != ext_) continue;
    std::error_code sec;
    uint64_t size = fs::file_size(entry.path(), sec);
    if (!sec) bytes_ += size;
  }
}

size_t DiskBudget::charge(const std::string& path, uint64_t old_bytes,
                          uint64_t new_bytes) {
  bytes_ -= std::min(bytes_, old_bytes);
  bytes_ += new_bytes;
  if (max_bytes_ == 0 || bytes_ <= max_bytes_) return 0;
  return evict(path);
}

// Oldest-mtime first, path tie-break, `keep_path` exempt. Re-walks the
// directory so the counter is re-synchronized against external
// adds/removes before anything is deleted, sweeping orphaned temp files
// on the way.
size_t DiskBudget::evict(const std::string& keep_path) {
  struct Candidate {
    fs::file_time_type mtime;
    uint64_t size;
    fs::path path;
  };
  std::vector<Candidate> entries;
  bytes_ = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::error_code rec;
    if (is_orphan_temp(entry)) fs::remove(entry.path(), rec);
    if (entry.path().extension() != ext_) continue;
    std::error_code sec, tec;
    uint64_t size = fs::file_size(entry.path(), sec);
    auto mtime = fs::last_write_time(entry.path(), tec);
    if (sec || tec) continue;
    bytes_ += size;
    entries.push_back({mtime, size, entry.path()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  size_t removed = 0;
  for (const auto& e : entries) {
    if (bytes_ <= max_bytes_) break;
    if (e.path == keep_path) continue;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      bytes_ -= std::min(bytes_, e.size);
      ++evictions_;
      ++removed;
    }
  }
  return removed;
}

}  // namespace ap::support

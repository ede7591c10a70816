#include "support/disk_budget.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

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

void DiskBudget::add_dir(const std::string& dir, const std::string& ext) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = dirs_.emplace(dir, Dir{ext, 0, 0});
  if (!inserted) return;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::error_code rec;
    if (is_orphan_temp(entry)) fs::remove(entry.path(), rec);
    if (entry.path().extension() != ext) continue;
    std::error_code sec;
    uint64_t size = fs::file_size(entry.path(), sec);
    if (!sec) it->second.bytes += size;
  }
}

DiskBudget::Dir* DiskBudget::dir_of_locked(const std::string& path) {
  Dir* best = nullptr;
  size_t best_len = 0;
  for (auto& [dir, d] : dirs_) {
    if (path.size() > dir.size() + 1 && path.compare(0, dir.size(), dir) == 0 &&
        path[dir.size()] == '/' && dir.size() >= best_len) {
      best = &d;
      best_len = dir.size();
    }
  }
  return best;
}

size_t DiskBudget::charge(const std::string& path, uint64_t old_bytes,
                          uint64_t new_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Dir* d = dir_of_locked(path);
  if (d) {
    d->bytes -= std::min(d->bytes, old_bytes);
    d->bytes += new_bytes;
  }
  if (max_bytes_ == 0) return 0;
  uint64_t total = 0;
  for (const auto& [dir, dd] : dirs_) total += dd.bytes;
  if (total <= max_bytes_) return 0;
  return evict_locked(path);
}

// Oldest-mtime first across every registered directory, path tie-break,
// `keep_path` exempt. Re-walks the directories so the counters are
// re-synchronized against external adds/removes before anything is
// deleted, sweeping orphaned temp files on the way.
size_t DiskBudget::evict_locked(const std::string& keep_path) {
  struct Candidate {
    fs::file_time_type mtime;
    uint64_t size;
    fs::path path;
    std::string dir;
  };
  std::vector<Candidate> entries;
  uint64_t total = 0;
  for (auto& [dir, d] : dirs_) {
    d.bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      std::error_code rec;
      if (is_orphan_temp(entry)) fs::remove(entry.path(), rec);
      if (entry.path().extension() != d.ext) continue;
      std::error_code sec, tec;
      uint64_t size = fs::file_size(entry.path(), sec);
      auto mtime = fs::last_write_time(entry.path(), tec);
      if (sec || tec) continue;
      d.bytes += size;
      total += size;
      entries.push_back({mtime, size, entry.path(), dir});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  size_t removed = 0;
  for (const auto& e : entries) {
    if (total <= max_bytes_) break;
    if (e.path == keep_path) continue;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      total -= e.size;
      Dir& d = dirs_[e.dir];
      d.bytes -= std::min(d.bytes, e.size);
      ++d.evictions;
      ++removed;
    }
  }
  return removed;
}

uint64_t DiskBudget::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [dir, d] : dirs_) total += d.bytes;
  return total;
}

uint64_t DiskBudget::dir_bytes(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dirs_.find(dir);
  return it == dirs_.end() ? 0 : it->second.bytes;
}

uint64_t DiskBudget::dir_evictions(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dirs_.find(dir);
  return it == dirs_.end() ? 0 : it->second.evictions;
}

uint64_t DiskBudget::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [dir, d] : dirs_) total += d.evictions;
  return total;
}

}  // namespace ap::support

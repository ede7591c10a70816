#include "service/cache.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "fir/unparse.h"
#include "support/fnv.h"

namespace ap::service {

namespace {

std::string hex16(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

// "%.6f" of `v` at any magnitude (a fixed buffer would cut a line short
// and make the entry undecodable).
std::string fixed6(double v) {
  int n = std::snprintf(nullptr, 0, "%.6f", v);
  std::string out(static_cast<size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.6f", v);
  return out;
}

// Reads the next `n` bytes of `in` (a stream over `total` bytes) into
// *out. A length larger than what is left is malformed input: it is
// rejected before anything is allocated for it.
bool read_block(std::istream& in, size_t total, size_t n, std::string* out) {
  std::streamoff at = in.tellg();
  if (at < 0 || n > total - static_cast<size_t>(at)) return false;
  out->resize(n);
  in.read(out->data(), static_cast<std::streamsize>(n));
  return in.gcount() == static_cast<std::streamsize>(n);
}

}  // namespace

CompileResult to_compile_result(const driver::PipelineResult& r) {
  CompileResult out;
  out.ok = r.ok;
  out.error = r.error;
  out.parallel_loops = r.parallel_loops;
  out.code_lines = r.code_lines;
  out.dep_tests = r.par.dep_tests;
  out.dep_tests_unique = r.par.dep_tests_unique;
  out.timings = r.timings;
  out.print_dump = r.print_dump;
  out.stopped_early = r.stopped_early;
  out.unit_hits = r.unit_hits;
  out.unit_misses = r.unit_misses;
  out.unit_invalidated = r.unit_invalidated;
  if (r.program) out.program_text = fir::unparse(*r.program);
  return out;
}

std::string options_fingerprint(const driver::PipelineOptions& o) {
  std::ostringstream s;
  s << "v" << kCacheFormatVersion << ";cfg=" << static_cast<int>(o.config)
    << ";par=" << o.par.min_trip << ',' << o.par.normalize << ','
    << o.par.mark_nested << ',' << o.par.use_banerjee << ','
    << o.par.use_siv_refinement << ',' << o.par.collect_all_blockers
    << ";conv=" << o.conv.max_stmts << ',' << o.conv.max_callee_calls << ','
    << o.conv.require_in_loop << ',' << o.conv.eliminate_dead_units << ','
    << o.conv.max_passes << ";annot=" << o.annot.require_in_loop
    << ";rev=" << o.reverse.tolerate_reordering << ','
    << o.reverse.tolerate_forward_subst << ',' << o.reverse.tolerate_literals
    << ',' << o.reverse.fallback_to_hints
    // stop_after/print_after change the produced result; the execution
    // knobs (unit_threads/unit_pool/verify) do not and stay out of the key.
    << ";stop=" << o.stop_after << ";print=" << o.print_after;
  return s.str();
}

uint64_t cache_key(std::string_view source, std::string_view annotations,
                   const driver::PipelineOptions& o) {
  // Same information as options_fingerprint() (which stays the canonical
  // printable form for telemetry and tests), hashed field by field via the
  // shared driver::hash_pipeline_options folding — byte-identical to the
  // historical inline sequence, so existing disk tiers stay valid.
  uint64_t h = kFnvOffset;
  h = fnv_u64(h, kCacheFormatVersion);
  h = driver::hash_pipeline_options(h, o);
  h = fnv1a(h, source);
  h = fnv1a(h, std::string_view("\0", 1));
  h = fnv1a(h, annotations);
  return h;
}

std::string serialize_result(const CompileResult& r) {
  std::ostringstream s;
  s << "APCACHE " << kCacheFormatVersion << "\n";
  s << "ok " << (r.ok ? 1 : 0) << "\n";
  s << "stopped_early " << (r.stopped_early ? 1 : 0) << "\n";
  s << "code_lines " << r.code_lines << "\n";
  s << "dep_tests " << r.dep_tests << "\n";
  s << "dep_tests_unique " << r.dep_tests_unique << "\n";
  s << "total_ms " << fixed6(r.timings.total_ms) << "\n";
  s << "passes " << r.timings.passes.size() << "\n";
  for (const auto& p : r.timings.passes)
    s << "pass " << p.name << ' ' << fixed6(p.wall_ms) << ' ' << p.units
      << ' ' << p.diagnostics << ' ' << p.unit_hits << ' ' << p.unit_misses
      << ' ' << p.unit_invalidated << "\n";
  s << "print_dump " << r.print_dump.size() << "\n";
  s << r.print_dump << "\n";
  s << "parallel_loops " << r.parallel_loops.size();
  for (int64_t id : r.parallel_loops) s << ' ' << id;
  s << "\n";
  s << "program " << r.program_text.size() << "\n";
  s << r.program_text;
  return s.str();
}

std::optional<CompileResult> deserialize_result(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string tag;
  uint32_t version = 0;
  if (!(in >> tag >> version) || tag != "APCACHE" ||
      version != kCacheFormatVersion)
    return std::nullopt;

  CompileResult r;
  int ok = 0;
  size_t nloops = 0, nbytes = 0;
  if (!(in >> tag >> ok) || tag != "ok") return std::nullopt;
  r.ok = ok != 0;
  int stopped = 0;
  if (!(in >> tag >> stopped) || tag != "stopped_early") return std::nullopt;
  r.stopped_early = stopped != 0;
  if (!(in >> tag >> r.code_lines) || tag != "code_lines") return std::nullopt;
  if (!(in >> tag >> r.dep_tests) || tag != "dep_tests") return std::nullopt;
  if (!(in >> tag >> r.dep_tests_unique) || tag != "dep_tests_unique")
    return std::nullopt;
  if (!(in >> tag >> r.timings.total_ms) || tag != "total_ms")
    return std::nullopt;
  size_t npasses = 0;
  if (!(in >> tag >> npasses) || tag != "passes") return std::nullopt;
  for (size_t i = 0; i < npasses; ++i) {
    pm::PassRecord p;
    if (!(in >> tag >> p.name >> p.wall_ms >> p.units >> p.diagnostics >>
          p.unit_hits >> p.unit_misses >> p.unit_invalidated) ||
        tag != "pass")
      return std::nullopt;
    r.timings.passes.push_back(std::move(p));
  }
  size_t ndump = 0;
  if (!(in >> tag >> ndump) || tag != "print_dump") return std::nullopt;
  in.get();  // the newline terminating the print_dump header
  if (!read_block(in, text.size(), ndump, &r.print_dump)) return std::nullopt;
  if (!(in >> tag >> nloops) || tag != "parallel_loops") return std::nullopt;
  for (size_t i = 0; i < nloops; ++i) {
    int64_t id;
    if (!(in >> id)) return std::nullopt;
    r.parallel_loops.insert(id);
  }
  if (!(in >> tag >> nbytes) || tag != "program") return std::nullopt;
  in.get();  // the newline terminating the program header
  if (!read_block(in, text.size(), nbytes, &r.program_text))
    return std::nullopt;
  return r;
}

ResultCache::ResultCache(size_t capacity, std::string disk_dir,
                         size_t disk_max_bytes)
    : capacity_(capacity < 1 ? 1 : capacity), disk_dir_(std::move(disk_dir)) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    // Pre-existing entries (warm restarts) count against the byte budget.
    budget_.emplace(disk_dir_, ".apc", disk_max_bytes);
  }
}

std::string ResultCache::disk_path(uint64_t key) const {
  return disk_dir_ + "/" + hex16(key) + ".apc";
}

std::optional<CompileResult> ResultCache::find(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.memory_hits;
    return it->second->second;
  }
  if (!disk_dir_.empty()) {
    std::ifstream f(disk_path(key), std::ios::binary);
    if (f) {
      std::ostringstream buf;
      buf << f.rdbuf();
      auto r = deserialize_result(buf.str());
      if (r) {
        insert_memory_locked(key, *r);
        ++stats_.disk_hits;
        return r;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<CompileResult> ResultCache::find_memory(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.memory_hits;
  return it->second->second;
}

void ResultCache::store(uint64_t key, const CompileResult& r) {
  if (!r.ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  insert_memory_locked(key, r);
  ++stats_.stores;
  if (!disk_dir_.empty()) {
    const std::string path = disk_path(key);
    std::error_code ec;
    uint64_t old_size = std::filesystem::file_size(path, ec);
    if (ec) old_size = 0;
    std::string payload = serialize_result(r);
    // A reader in another process sharing the cache dir (fleet workers, a
    // concurrently evicting instance) sees the complete old entry or the
    // complete new one. The budget may then evict oldest-mtime files
    // (this entry itself is exempt).
    if (support::publish_file(path, payload))
      budget_->charge(path, old_size, payload.size());
  }
}

void ResultCache::insert_memory_locked(uint64_t key, const CompileResult& r) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = r;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, r);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  if (budget_) {
    s.disk_bytes = budget_->used_bytes();
    s.disk_evictions = budget_->evictions();
  }
  return s;
}

size_t ResultCache::memory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace ap::service

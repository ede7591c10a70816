#include "incr/unit_cache.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/disk_budget.h"

namespace ap::incr {

namespace {

std::string hex16(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

void wr_str(std::ostream& s, const std::string& v) {
  s << v.size() << "\n" << v << "\n";
}

bool rd_str(std::istream& in, std::string& v) {
  size_t n = 0;
  if (!(in >> n)) return false;
  in.get();  // the newline terminating the length header
  v.resize(n);
  in.read(v.data(), static_cast<std::streamsize>(n));
  if (in.gcount() != static_cast<std::streamsize>(n)) return false;
  in.get();  // trailing newline
  return true;
}

}  // namespace

UnitSnapshot snapshot_unit(const fir::ProgramUnit& unit,
                           const par::ParallelizeResult& par) {
  UnitSnapshot snap;
  snap.par = par;
  size_t idx = 0;
  fir::walk_stmts(unit.body, [&](const fir::Stmt& s) {
    if (s.kind != fir::StmtKind::Do) return true;
    const fir::OmpInfo& o = s.omp;
    if (o.parallel || o.nowait || !o.privates.empty() ||
        !o.firstprivates.empty() || !o.reductions.empty())
      snap.marks.push_back({idx, o});
    snap.origin_ids.push_back(s.origin_id);
    ++idx;
    return true;
  });
  snap.do_count = idx;
  return snap;
}

bool apply_snapshot(fir::ProgramUnit& unit, UnitSnapshot& snap) {
  // First pass: collect DO pointers in pre-order (the same enumeration
  // snapshot_unit used) and check the shape matches.
  std::vector<fir::Stmt*> dos;
  fir::walk_stmts(unit.body, [&](fir::Stmt& s) {
    if (s.kind == fir::StmtKind::Do) dos.push_back(&s);
    return true;
  });
  if (dos.size() != snap.do_count) return false;
  for (const auto& m : snap.marks)
    if (m.do_index >= dos.size()) return false;

  // Remap the snapshot's verdict origin_ids onto the current parse's ids
  // (an edit elsewhere in the program can renumber every later loop).
  // Positional: the i-th pre-order DO at snapshot time is the i-th now —
  // the key guarantees identical unit content. A conflicting map (same
  // old id at two positions with different new ids) bails to recompute.
  if (snap.origin_ids.size() == dos.size()) {
    std::map<int64_t, int64_t> remap;
    for (size_t i = 0; i < dos.size(); ++i) {
      auto [it, inserted] =
          remap.emplace(snap.origin_ids[i], dos[i]->origin_id);
      if (!inserted && it->second != dos[i]->origin_id) return false;
    }
    for (auto& v : snap.par.loops) {
      auto it = remap.find(v.origin_id);
      if (it != remap.end()) v.origin_id = it->second;
    }
  } else if (!snap.origin_ids.empty()) {
    return false;
  }

  for (const auto& m : snap.marks) dos[m.do_index]->omp = m.omp;
  return true;
}

std::string serialize_snapshot(const UnitSnapshot& snap) {
  std::ostringstream s;
  s << "APUNIT " << kUnitCacheFormatVersion << "\n";
  s << "do_count " << snap.do_count << "\n";
  s << "origin_ids " << snap.origin_ids.size();
  for (int64_t id : snap.origin_ids) s << ' ' << id;
  s << "\n";
  s << "marks " << snap.marks.size() << "\n";
  for (const auto& m : snap.marks) {
    s << "mark " << m.do_index << ' ' << (m.omp.parallel ? 1 : 0) << ' '
      << (m.omp.nowait ? 1 : 0) << ' ' << m.omp.privates.size() << ' '
      << m.omp.firstprivates.size() << ' ' << m.omp.reductions.size() << "\n";
    for (const auto& v : m.omp.privates) wr_str(s, v);
    for (const auto& v : m.omp.firstprivates) wr_str(s, v);
    for (const auto& r : m.omp.reductions) {
      wr_str(s, r.op);
      wr_str(s, r.var);
    }
  }
  s << "par " << snap.par.parallelized << ' ' << snap.par.dep_tests << ' '
    << snap.par.dep_tests_unique << "\n";
  s << "loops " << snap.par.loops.size() << "\n";
  for (const auto& v : snap.par.loops) {
    s << "loop " << v.origin_id << ' ' << (v.parallel ? 1 : 0) << ' '
      << v.blockers.size() << "\n";
    wr_str(s, v.unit);
    wr_str(s, v.do_var);
    wr_str(s, v.reason);
    for (const auto& b : v.blockers) {
      s << "blocker " << static_cast<int>(b.kind) << "\n";
      wr_str(s, b.subject);
      wr_str(s, b.detail);
    }
  }
  return s.str();
}

std::optional<UnitSnapshot> deserialize_snapshot(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string tag;
  uint32_t version = 0;
  if (!(in >> tag >> version) || tag != "APUNIT" ||
      version != kUnitCacheFormatVersion)
    return std::nullopt;

  UnitSnapshot snap;
  if (!(in >> tag >> snap.do_count) || tag != "do_count") return std::nullopt;
  size_t nids = 0;
  if (!(in >> tag >> nids) || tag != "origin_ids") return std::nullopt;
  snap.origin_ids.resize(nids);
  for (auto& id : snap.origin_ids)
    if (!(in >> id)) return std::nullopt;
  size_t nmarks = 0;
  if (!(in >> tag >> nmarks) || tag != "marks") return std::nullopt;
  for (size_t i = 0; i < nmarks; ++i) {
    OmpMark m;
    int parallel = 0, nowait = 0;
    size_t npriv = 0, nfirst = 0, nred = 0;
    if (!(in >> tag >> m.do_index >> parallel >> nowait >> npriv >> nfirst >>
          nred) ||
        tag != "mark")
      return std::nullopt;
    m.omp.parallel = parallel != 0;
    m.omp.nowait = nowait != 0;
    m.omp.privates.resize(npriv);
    for (auto& v : m.omp.privates)
      if (!rd_str(in, v)) return std::nullopt;
    m.omp.firstprivates.resize(nfirst);
    for (auto& v : m.omp.firstprivates)
      if (!rd_str(in, v)) return std::nullopt;
    m.omp.reductions.resize(nred);
    for (auto& r : m.omp.reductions)
      if (!rd_str(in, r.op) || !rd_str(in, r.var)) return std::nullopt;
    snap.marks.push_back(std::move(m));
  }
  if (!(in >> tag >> snap.par.parallelized >> snap.par.dep_tests >>
        snap.par.dep_tests_unique) ||
      tag != "par")
    return std::nullopt;
  size_t nloops = 0;
  if (!(in >> tag >> nloops) || tag != "loops") return std::nullopt;
  for (size_t i = 0; i < nloops; ++i) {
    par::LoopVerdict v;
    int parallel = 0;
    size_t nblockers = 0;
    if (!(in >> tag >> v.origin_id >> parallel >> nblockers) || tag != "loop")
      return std::nullopt;
    v.parallel = parallel != 0;
    if (!rd_str(in, v.unit) || !rd_str(in, v.do_var) || !rd_str(in, v.reason))
      return std::nullopt;
    for (size_t b = 0; b < nblockers; ++b) {
      par::Blocker bl;
      int kind = 0;
      if (!(in >> tag >> kind) || tag != "blocker") return std::nullopt;
      bl.kind = static_cast<par::Blocker::Kind>(kind);
      if (!rd_str(in, bl.subject) || !rd_str(in, bl.detail))
        return std::nullopt;
      v.blockers.push_back(std::move(bl));
    }
    snap.par.loops.push_back(std::move(v));
  }
  return snap;
}

void IncrStats::add(const IncrStats& o) {
  memory_hits += o.memory_hits;
  disk_hits += o.disk_hits;
  peer_hits += o.peer_hits;
  misses += o.misses;
  invalidated_by_dep += o.invalidated_by_dep;
  stores += o.stores;
  evictions += o.evictions;
}

UnitCache::UnitCache(size_t capacity, std::string disk_dir,
                     support::DiskBudget* budget)
    : capacity_(capacity < 1 ? 1 : capacity),
      disk_dir_(std::move(disk_dir)),
      budget_(budget) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    if (budget_) budget_->add_dir(disk_dir_, ".apu");
  }
}

void UnitCache::set_peer_lookup(PeerLookup fn) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_lookup_ = std::move(fn);
}

void UnitCache::set_store_hook(StoreHook fn) {
  std::lock_guard<std::mutex> lock(mu_);
  store_hook_ = std::move(fn);
}

std::string UnitCache::disk_path(uint64_t key) const {
  return disk_dir_ + "/" + hex16(key) + ".apu";
}

std::optional<std::string> UnitCache::probe_local_locked(
    const std::string& boundary, uint64_t key, UnitTier* tier) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_[boundary].memory_hits;
    *tier = UnitTier::Memory;
    return it->second->payload;
  }
  if (!disk_dir_.empty()) {
    std::ifstream f(disk_path(key), std::ios::binary);
    if (f) {
      std::ostringstream buf;
      buf << f.rdbuf();
      std::string payload = buf.str();
      if (!payload.empty()) {
        insert_memory_locked(key, payload);
        ++stats_[boundary].disk_hits;
        *tier = UnitTier::Disk;
        return payload;
      }
    }
  }
  return std::nullopt;
}

std::vector<UnitFindResult> UnitCache::find_many(
    const std::string& boundary, const std::vector<UnitQuery>& queries) {
  std::vector<UnitFindResult> out(queries.size());
  std::vector<size_t> missed;
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].payload = probe_local_locked(boundary, queries[i].key, &out[i].tier);
    if (!out[i].payload) missed.push_back(i);
  }
  PeerLookup peer = peer_lookup_;
  if (peer && !missed.empty()) {
    std::vector<uint64_t> keys;
    keys.reserve(missed.size());
    for (size_t i : missed) keys.push_back(queries[i].key);
    // One fleet lookup for every local miss, outside the mutex: other
    // lanes keep probing meanwhile.
    lock.unlock();
    std::vector<std::optional<std::string>> got = peer(boundary, keys);
    lock.lock();
    for (size_t j = 0; j < missed.size() && j < got.size(); ++j) {
      if (!got[j]) continue;
      UnitFindResult& r = out[missed[j]];
      insert_memory_locked(keys[j], *got[j]);
      write_disk_locked(keys[j], *got[j]);
      ++stats_[boundary].peer_hits;
      r.tier = UnitTier::Peer;
      r.payload = std::move(got[j]);
    }
  }
  IncrStats& st = stats_[boundary];
  auto& by_fp = last_key_by_fp_[boundary];
  for (size_t i : missed) {
    if (out[i].payload) continue;
    ++st.misses;
    auto fp_it = by_fp.find(queries[i].own_fp);
    if (fp_it != by_fp.end() && fp_it->second != queries[i].key) {
      ++st.invalidated_by_dep;
      out[i].invalidated = true;
    }
  }
  return out;
}

UnitFindResult UnitCache::find(const std::string& boundary, uint64_t key,
                               uint64_t own_fp) {
  return std::move(find_many(boundary, {{key, own_fp}}).front());
}

void UnitCache::store(const std::string& boundary, uint64_t key,
                      uint64_t own_fp, const std::string& payload) {
  StoreHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = insert_memory_locked(key, payload);
    if (it->boundary != boundary || it->own_fp != own_fp)
      forget_pair_locked(*it);
    it->boundary = boundary;
    it->own_fp = own_fp;
    last_key_by_fp_[boundary][own_fp] = key;
    ++stats_[boundary].stores;
    write_disk_locked(key, payload);
    hook = store_hook_;
  }
  if (hook) hook(boundary, key, payload);
}

std::optional<std::string> UnitCache::peek(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->payload;
  }
  if (!disk_dir_.empty()) {
    std::ifstream f(disk_path(key), std::ios::binary);
    if (f) {
      std::ostringstream buf;
      buf << f.rdbuf();
      std::string payload = buf.str();
      if (!payload.empty()) {
        insert_memory_locked(key, payload);
        return payload;
      }
    }
  }
  return std::nullopt;
}

void UnitCache::adopt(const std::string& boundary, uint64_t key,
                      const std::string& payload) {
  (void)boundary;  // payloads adopt into the shared keyspace
  std::lock_guard<std::mutex> lock(mu_);
  insert_memory_locked(key, payload);
  write_disk_locked(key, payload);
}

void UnitCache::write_disk_locked(uint64_t key, const std::string& payload) {
  if (disk_dir_.empty()) return;
  // Atomic publish, so a concurrent reader (another process sharing the
  // cache dir) never sees a torn entry.
  const std::string path = disk_path(key);
  std::error_code ec;
  uint64_t old_size = std::filesystem::file_size(path, ec);
  if (ec) old_size = 0;
  if (support::publish_file(path, payload) && budget_)
    budget_->charge(path, old_size, payload.size());
}

void UnitCache::forget_pair_locked(const Entry& e) {
  if (e.boundary.empty()) return;
  // Only while the pair still names this entry's key: a newer key stored
  // under the same pair keeps it.
  auto b = last_key_by_fp_.find(e.boundary);
  if (b == last_key_by_fp_.end()) return;
  auto fp = b->second.find(e.own_fp);
  if (fp != b->second.end() && fp->second == e.key) b->second.erase(fp);
}

UnitCache::Lru::iterator UnitCache::insert_memory_locked(
    uint64_t key, const std::string& payload) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->payload = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second;
  }
  lru_.push_front({key, payload, {}, 0});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    forget_pair_locked(victim);
    index_.erase(victim.key);
    lru_.pop_back();
    // Evictions are not attributable to one boundary; account them under
    // the aggregate-only bucket.
    ++stats_[""].evictions;
  }
  return lru_.begin();
}

IncrStats UnitCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IncrStats total;
  for (const auto& [boundary, st] : stats_) total.add(st);
  return total;
}

std::map<std::string, IncrStats> UnitCache::boundary_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, IncrStats> out = stats_;
  out.erase("");  // the aggregate-only eviction bucket
  return out;
}

size_t UnitCache::memory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t UnitCache::fingerprint_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [boundary, by_fp] : last_key_by_fp_) n += by_fp.size();
  return n;
}

}  // namespace ap::incr

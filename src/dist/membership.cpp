#include "dist/membership.h"

namespace ap::dist {

const char* health_name(Health h) {
  switch (h) {
    case Health::Alive: return "alive";
    case Health::Suspect: return "suspect";
    case Health::Dead: return "dead";
  }
  return "?";
}

void Membership::join(const net::WorkerInfo& info,
                      std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = members_[info.id];
  m.info = info;
  m.health = Health::Alive;
  m.left = false;
  m.last_heartbeat = now;
  m.transport_failures = 0;
  ++joined_;
}

void Membership::heartbeat(const net::WorkerInfo& info,
                           const net::WorkerLoad& load, bool leaving,
                           std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = members_[info.id];
  if (m.info.id.empty()) m.info = info;  // adopted: coordinator restarted
  m.load = load;
  m.last_heartbeat = now;
  m.transport_failures = 0;
  if (leaving) {
    if (!m.left) ++left_;
    m.left = true;
    return;
  }
  m.health = Health::Alive;
}

void Membership::tick(std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, m] : members_) {
    if (m.left || m.health == Health::Dead) continue;
    auto silent_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - m.last_heartbeat)
                         .count();
    if (silent_ms >= opts_.dead_after_ms) {
      m.health = Health::Dead;
      ++died_;
    } else if (silent_ms >= opts_.suspect_after_ms) {
      m.health = Health::Suspect;
    }
  }
}

void Membership::note_failure(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = members_.find(id);
  if (it == members_.end()) return;
  Member& m = it->second;
  if (m.health == Health::Dead) return;
  ++m.transport_failures;
  if (m.transport_failures >= 2) {
    m.health = Health::Dead;
    ++died_;
  } else {
    m.health = Health::Suspect;
  }
}

void Membership::note_success(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = members_.find(id);
  if (it == members_.end()) return;
  it->second.transport_failures = 0;
  if (!it->second.left && it->second.health != Health::Dead)
    it->second.health = Health::Alive;
}

std::vector<net::WorkerInfo> Membership::routable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<net::WorkerInfo> out;
  for (const auto& [id, m] : members_)
    if (!m.left && m.health != Health::Dead) out.push_back(m.info);
  return out;
}

std::vector<Membership::RoutableWorker> Membership::routable_with_load()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RoutableWorker> out;
  for (const auto& [id, m] : members_)
    if (!m.left && m.health != Health::Dead)
      out.push_back({m.info, m.load.queue_depth + m.load.running});
  return out;
}

net::WorkerInfo Membership::info(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = members_.find(id);
  return it == members_.end() ? net::WorkerInfo{} : it->second.info;
}

std::vector<Member> Membership::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Member> out;
  out.reserve(members_.size());
  for (const auto& [id, m] : members_) out.push_back(m);
  return out;
}

uint64_t Membership::joined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return joined_;
}

uint64_t Membership::left() const {
  std::lock_guard<std::mutex> lock(mu_);
  return left_;
}

uint64_t Membership::died() const {
  std::lock_guard<std::mutex> lock(mu_);
  return died_;
}

}  // namespace ap::dist

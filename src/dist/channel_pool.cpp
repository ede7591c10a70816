#include "dist/channel_pool.h"

#include <algorithm>

namespace ap::dist {

void ChannelPool::retire_locked(const Entry& e) {
  retired_.connects += e.ch->connects();
  retired_.reconnects += e.ch->reconnects();
  retired_.inflight_peak =
      std::max(retired_.inflight_peak, e.ch->inflight_peak());
}

std::shared_ptr<net::Channel> ChannelPool::get(const net::WorkerInfo& w) {
  std::string host = w.host.empty() ? "127.0.0.1" : w.host;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(w.id);
  if (it != channels_.end()) {
    if (it->second.host == host && it->second.port == w.port)
      return it->second.ch;
    // Re-registered at a new address: the pooled channel is stale.
    retire_locked(it->second);
    channels_.erase(it);
  }
  net::ChannelOptions co;
  co.host = host;
  co.port = w.port;
  co.recv_timeout_ms = recv_timeout_ms_;
  Entry e{host, w.port, std::make_shared<net::Channel>(co)};
  auto ch = e.ch;
  channels_.emplace(w.id, std::move(e));
  return ch;
}

void ChannelPool::retain(const std::vector<net::WorkerInfo>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = channels_.begin(); it != channels_.end();) {
    bool kept = std::any_of(live.begin(), live.end(),
                            [&](const net::WorkerInfo& w) {
                              return w.id == it->first;
                            });
    if (kept) {
      ++it;
    } else {
      retire_locked(it->second);
      it = channels_.erase(it);
    }
  }
}

ChannelPool::Totals ChannelPool::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t = retired_;
  for (const auto& [id, e] : channels_) {
    t.connects += e.ch->connects();
    t.reconnects += e.ch->reconnects();
    t.inflight_peak = std::max(t.inflight_peak, e.ch->inflight_peak());
  }
  return t;
}

}  // namespace ap::dist

// One kept, pipelined net::Channel per fleet member, keyed by worker id.
//
// Every worker reaches its peers through it (cache_probe/cache_fill), so
// no hop pays a TCP connect once a channel is warm. (The coordinator
// forwards on its event loop instead, over loop-owned connections; see
// dist/coordinator.h.) Channels dial lazily on first use. An entry
// remembers the endpoint it was dialled for: a member re-registering at a
// new address gets a fresh channel, and retain() drops the channels of
// members that left the caller's view. A retired channel's counters fold
// into the pool's totals; calls still in flight on it finish on their own
// reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/protocol.h"

namespace ap::dist {

class ChannelPool {
 public:
  // `recv_timeout_ms` bounds every blocking read on the pooled channels.
  explicit ChannelPool(int recv_timeout_ms) : recv_timeout_ms_(recv_timeout_ms) {}

  // Thread-safe. The channel for `w`, created on first use.
  std::shared_ptr<net::Channel> get(const net::WorkerInfo& w);

  // Thread-safe. Retires every channel whose member is not in `live`.
  void retain(const std::vector<net::WorkerInfo>& live);

  struct Totals {
    uint64_t connects = 0;
    uint64_t reconnects = 0;
    uint64_t inflight_peak = 0;
  };
  // Over every channel this pool ever held, retired ones included.
  Totals totals() const;

 private:
  struct Entry {
    std::string host;
    int port = 0;
    std::shared_ptr<net::Channel> ch;
  };
  void retire_locked(const Entry& e);  // mu_ held

  const int recv_timeout_ms_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> channels_;  // member id -> channel
  Totals retired_;
};

}  // namespace ap::dist

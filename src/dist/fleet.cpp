#include "dist/fleet.h"

#include <algorithm>

namespace ap::dist {

bool Fleet::start(std::string* err) {
  CoordinatorOptions co;
  co.threads = std::max(2, opts_.workers);
  co.request_timeout_ms = opts_.request_timeout_ms;
  co.membership = opts_.membership;
  co.telemetry = opts_.telemetry;
  coordinator_ = std::make_unique<Coordinator>(co);
  if (!coordinator_->start(err)) return false;

  for (int i = 0; i < opts_.workers; ++i) {
    std::string dir;
    if (!opts_.cache_dir_base.empty())
      dir = opts_.cache_dir_base + "/w" + std::to_string(i);
    caches_.push_back(std::make_unique<service::ResultCache>(
        opts_.cache_capacity, dir));
    WorkerOptions wo;
    wo.id = "w";
    wo.id += std::to_string(i);
    wo.threads = opts_.worker_threads;
    wo.coordinator_port = coordinator_->port();
    wo.heartbeat_interval_ms = opts_.heartbeat_interval_ms;
    wo.probe_peers = opts_.probe_peers;
    wo.replicate = opts_.replicate;
    wo.request_timeout_ms = opts_.request_timeout_ms;
    wo.cache = caches_.back().get();
    workers_.push_back(std::make_unique<Worker>(wo));
    if (!workers_.back()->start(err)) {
      drain_all();
      return false;
    }
  }
  return true;
}

void Fleet::drain_all() {
  for (auto& w : workers_) {
    if (w) {
      w->begin_drain();
      w->wait();
    }
  }
  if (coordinator_) {
    coordinator_->begin_drain();
    coordinator_->wait();
  }
}

}  // namespace ap::dist

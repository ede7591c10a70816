// The coordinator's view of the worker fleet: who is registered, how
// healthy each worker is, and which workers are currently routable.
//
// Health is a per-worker state machine driven by two signals:
//
//   heartbeats — a worker heartbeats every heartbeat_interval_ms. tick()
//     ages workers by heartbeat recency: silent past `suspect_after_ms`
//     demotes Alive -> Suspect; past `dead_after_ms` demotes to Dead. Any
//     heartbeat (or register) revives the worker to Alive.
//   transport failures — the routing plane reports forwarding outcomes.
//     The first consecutive failure demotes to Suspect, the second to
//     Dead (a crashed worker is discovered mid-request, well before the
//     heartbeat timeout); a success revives Suspect to Alive. Dead is
//     sticky against successes — a straggling in-flight response from a
//     worker already declared dead must not resurrect it; only the worker
//     itself can, with a fresh heartbeat or re-register.
//
// Suspect workers stay routable (they rank after nothing — the hash
// ranking is health-blind; the coordinator just walks it), Dead workers
// do not. A `leaving` heartbeat marks a graceful departure: the worker is
// immediately unroutable but its record is kept so a rejoin under the
// same id is recognized.
//
// Time is always passed in (steady_clock::time_point), never sampled
// internally, so tests can drive the state machine deterministically.
// All methods are thread-safe: heartbeats and the routing plane's
// note_failure/note_success arrive on the coordinator's loop thread while
// its tick thread ages the health state machine.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace ap::dist {

enum class Health { Alive, Suspect, Dead };
const char* health_name(Health h);

struct Member {
  net::WorkerInfo info;
  net::WorkerLoad load;       // last heartbeat's load report
  Health health = Health::Alive;
  bool left = false;          // graceful departure (leaving heartbeat)
  std::chrono::steady_clock::time_point last_heartbeat;
  int transport_failures = 0; // consecutive; reset on success/heartbeat
};

class Membership {
 public:
  struct Options {
    int64_t suspect_after_ms = 2'000;  // heartbeat silence -> Suspect
    int64_t dead_after_ms = 6'000;     // heartbeat silence -> Dead
  };

  explicit Membership(const Options& opts) : opts_(opts) {}

  // Register (or re-register: same id revives and updates the address).
  void join(const net::WorkerInfo& info,
            std::chrono::steady_clock::time_point now);

  // A heartbeat from `info.id`. Revives to Alive, refreshes the load
  // report; `leaving` marks a graceful departure instead. Unknown ids are
  // adopted (a worker may heartbeat a coordinator that restarted).
  void heartbeat(const net::WorkerInfo& info, const net::WorkerLoad& load,
                 bool leaving, std::chrono::steady_clock::time_point now);

  // Age health states by heartbeat recency.
  void tick(std::chrono::steady_clock::time_point now);

  // Routing-plane outcome reports for forwarded requests.
  void note_failure(const std::string& id);
  void note_success(const std::string& id);

  // Workers a request may be routed to (not Dead, not left), in stable
  // (id-sorted) order — rank with dist::rank_workers.
  std::vector<net::WorkerInfo> routable() const;

  // Routable workers with each one's last reported depth (queue_depth +
  // running), for load-aware ranking (dist::rank_workers_loaded). The
  // rest of the load report (histogram text included) stays behind: this
  // runs once per forwarded request.
  struct RoutableWorker {
    net::WorkerInfo info;
    int64_t depth = 0;
  };
  std::vector<RoutableWorker> routable_with_load() const;

  std::vector<Member> snapshot() const;

  // Worker `id`'s current record, with the address it last registered.
  // Records are never removed, so every id a ranking held is found.
  net::WorkerInfo info(const std::string& id) const;

  // Lifetime counters for the fleet telemetry section.
  uint64_t joined() const;
  uint64_t left() const;
  uint64_t died() const;  // transitions into Dead (timeout or transport)

 private:
  Options opts_;
  mutable std::mutex mu_;
  std::map<std::string, Member> members_;  // ordered: stable snapshots
  uint64_t joined_ = 0;
  uint64_t left_ = 0;
  uint64_t died_ = 0;
};

}  // namespace ap::dist

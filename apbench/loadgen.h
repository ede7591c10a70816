// The load generator: ONE thread driving at most 4 connections to a
// wire-protocol endpoint, speaking the binary codec after a hello
// negotiation. Each connection is a client with zero think time: one
// request in flight, the next sent as soon as the reply is processed
// (closed loop). Sockets are nonblocking and multiplexed with ppoll.
//
// Why closed loops: on a shared host, stalls of several milliseconds come
// and go. An open loop at a fixed rate queues every request due during a
// stall, so its tail latency measured the host more than the system
// (run-to-run spread of p99 across seeds 0.4 to 1.2 of the median, against
// under 0.1 for one closed-loop client).
//
// The generator keeps no per-request history: each request is handed to
// the caller once, when it is answered, lost with its connection, or given
// up at the end of its phase, so the benchmark's memory does not grow with
// the system's throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apbench/bench.h"
#include "net/protocol.h"
#include "net/wire.h"

namespace apbench {

class LoadGen {
 public:
  // One finished request. Times are ms since the generator started.
  struct Outcome {
    uint32_t input = 0;   // the caller's input index
    double ready_ms = 0;  // when its connection became free
    double sent_ms = 0;
    double done_ms = -1;  // < 0: no reply
    bool transport_failed = false;
    const ap::net::Response* resp = nullptr;  // the reply, when one came

    bool ok() const {
      return resp && !transport_failed && resp->status == ap::net::Status::Ok;
    }
    double latency_ms() const { return done_ms - sent_ms; }
  };

  struct Phase {
    double seconds = 0;  // sending window
    size_t clients = 1;  // connections used, each one request in flight
  };

  struct PhaseResult {
    double start_ms = 0, end_ms = 0;  // sending window
    double cpu_s = 0;  // generator thread CPU over the phase
    double seconds() const { return (end_ms - start_ms) / 1000.0; }
  };

  // The next request to send and the input index it carries.
  using NextFn = std::function<uint32_t(ap::net::Request*)>;
  // Called on the generator thread once per request sent.
  using DoneFn = std::function<void(const Outcome&)>;

  LoadGen(int port, size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool connect(std::string* err);
  PhaseResult run(const Phase& phase, const NextFn& next, const DoneFn& done);

  // Ms since the generator started, the time base of Outcome and
  // PhaseResult.
  double now_ms() const { return ms_since(epoch_); }
  // The clock reading `ms` after the generator started.
  Clock::time_point at(double ms) const {
    return epoch_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  }

 private:
  struct Conn {
    int fd = -1;
    ap::net::FrameReader reader;
    std::string out;
    size_t out_off = 0;
    bool busy = false;
    int64_t id = 0;      // of the request in flight, when busy
    Outcome inflight;
    double free_ms = 0;  // when its last reply was processed
  };

  bool flush(Conn& c);
  bool read_ready(Conn& c, const DoneFn& done);
  // Ends the request in flight on `c` without a reply.
  void give_up(Conn& c, bool transport_failed, const DoneFn& done);

  int port_;
  std::vector<Conn> conns_;
  Clock::time_point epoch_ = Clock::now();
  int64_t next_id_ = 1;
};

}  // namespace apbench

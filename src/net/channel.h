// A thread-safe, pipelined, multiplexed client connection.
//
// net::Client is single-threaded and (in call()) one-request-at-a-time.
// Channel wraps one Client so many threads can issue calls over ONE TCP
// connection with their requests pipelined: each call is submitted
// immediately (requests interleave back to back on the socket) and the
// calling thread then waits for the response frame carrying its id.
//
// Reading uses the leader/followers pattern: at most one waiting thread
// (the leader) blocks in recv at a time; every frame it drains is matched
// to the pending call by id and handed over, and followers wait on a
// condition variable. When the leader's own response arrives it hands
// leadership to any remaining waiter. There is no dedicated reader
// thread, so an idle channel costs nothing.
//
// Transport errors poison the stream (frames cannot be re-associated on
// a fresh connection), so every in-flight call fails together; the next
// call reconnects lazily and renegotiates the codec. Fleet workers pool
// one Channel per peer (dist/channel_pool.h) — peer-hop concurrency then
// comes from pipelining instead of connection-per-request.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/client.h"
#include "net/protocol.h"

namespace ap::net {

struct ChannelOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  // Bounds each blocking read while waiting for responses (0 = forever).
  // A timeout is a transport failure: all in-flight calls fail.
  int recv_timeout_ms = 0;
};

class Channel {
 public:
  explicit Channel(ChannelOptions opts) : opts_(std::move(opts)) {}
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Thread-safe. Connects lazily on first use (and after a failure).
  // False with *err on transport failure — every concurrent in-flight
  // call on this channel fails with the same transport error, since the
  // stream is unrecoverable. Protocol-level statuses are successes.
  // The request's id is REPLACED with a channel-local one (concurrent
  // callers' ids are not unique across connections); a caller that
  // forwards on someone else's behalf rewrites resp->id afterwards.
  bool call(Request req, Response* resp, std::string* err);

  // Drops the connection; in-flight calls fail, the next call redials.
  void reset();

  // Times the transport was (re)established / times it was established
  // after the first (telemetry).
  uint64_t connects() const;
  uint64_t reconnects() const;
  // Largest number of simultaneously in-flight calls seen (telemetry).
  uint64_t inflight_peak() const;
  // Whether the current connection negotiated the binary codec.
  bool binary() const;

 private:
  struct Waiter {
    Response resp;
    std::string err;
    bool done = false;
    bool failed = false;
  };

  // All three require mu_ held.
  bool ensure_connected_locked(std::string* err);
  void fail_all_locked(const std::string& why);
  void drain_as_leader(std::unique_lock<std::mutex>& lock);

  const ChannelOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Client client_;
  bool reader_active_ = false;
  uint64_t connects_ = 0;
  uint64_t inflight_peak_ = 0;
  std::unordered_map<int64_t, Waiter*> pending_;
};

}  // namespace ap::net

#include "net/channel.h"

#include <utility>

namespace ap::net {

Channel::~Channel() {
  std::unique_lock<std::mutex> lock(mu_);
  fail_all_locked("channel destroyed");
}

bool Channel::ensure_connected_locked(std::string* err) {
  if (client_.connected()) return true;
  if (!client_.connect(opts_.host, opts_.port, err, opts_.recv_timeout_ms))
    return false;
  ++connects_;
  // Fresh connection: nothing is in flight, so a blocking hello under the
  // lock is safe.
  std::string nerr;
  if (!client_.negotiate(&nerr)) {
    client_.close();
    if (err) *err = "negotiate: " + nerr;
    return false;
  }
  return true;
}

void Channel::fail_all_locked(const std::string& why) {
  for (auto& [id, w] : pending_) {
    w->failed = true;
    w->err = why;
  }
  pending_.clear();
  client_.close();
  cv_.notify_all();
}

void Channel::drain_as_leader(std::unique_lock<std::mutex>& lock) {
  // One frame per leadership turn: the lock is dropped only around the
  // blocking read; dispatch happens under it. Sends from other threads
  // proceed meanwhile — Client's send and receive paths share only the
  // fd, which stays stable while a reader is active (fail_all/reset wait
  // for the leader to exit before closing).
  lock.unlock();
  Response r;
  std::string rerr;
  bool ok = client_.recv_any(&r, &rerr);
  lock.lock();
  if (!ok) {
    fail_all_locked(rerr);
    return;
  }
  auto it = pending_.find(r.id);
  if (it != pending_.end()) {
    Waiter* w = it->second;
    pending_.erase(it);
    w->resp = std::move(r);
    w->done = true;
  }
  // A frame answering no pending call (stale id) is dropped; if the
  // stream is truly desynchronized the next read fails and poisons the
  // channel anyway.
  cv_.notify_all();
}

bool Channel::call(Request req, Response* resp, std::string* err) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!ensure_connected_locked(err)) return false;
  // Ids are channel-local: concurrent callers may hand in requests that
  // carry equal ids (e.g. forwards preserving different clients'
  // numbering), and a duplicate key in pending_ would orphan a waiter.
  // The submit below assigns a fresh connection-unique id; callers that
  // need their own id in the response rewrite it on return.
  req.id = 0;
  int64_t id = 0;
  std::string serr;
  if (!client_.submit(std::move(req), &id, &serr)) {
    // A partial send leaves the stream unusable for everyone.
    fail_all_locked(serr);
    if (err) *err = serr;
    return false;
  }
  Waiter w;
  pending_[id] = &w;
  if (pending_.size() > inflight_peak_) inflight_peak_ = pending_.size();
  while (!w.done && !w.failed) {
    if (!reader_active_) {
      reader_active_ = true;
      drain_as_leader(lock);
      reader_active_ = false;
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
  pending_.erase(id);
  if (w.failed) {
    if (err) *err = w.err;
    return false;
  }
  *resp = std::move(w.resp);
  return true;
}

void Channel::reset() {
  std::unique_lock<std::mutex> lock(mu_);
  // Never close the fd under an active reader; wait for it to surface.
  cv_.wait(lock, [&] { return !reader_active_; });
  fail_all_locked("channel reset");
}

uint64_t Channel::connects() const {
  std::unique_lock<std::mutex> lock(mu_);
  return connects_;
}

uint64_t Channel::reconnects() const {
  std::unique_lock<std::mutex> lock(mu_);
  return connects_ > 0 ? connects_ - 1 : 0;
}

uint64_t Channel::inflight_peak() const {
  std::unique_lock<std::mutex> lock(mu_);
  return inflight_peak_;
}

bool Channel::binary() const {
  std::unique_lock<std::mutex> lock(mu_);
  return client_.binary();
}

}  // namespace ap::net

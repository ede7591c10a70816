#include "apbench/loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "net/binproto.h"

namespace apbench {

namespace ap_net = ap::net;

namespace {

// How long a phase waits for its last replies; a reply later than this is
// counted as unanswered.
constexpr double kGraceMs = 5000;

bool decode_response(std::string_view payload, ap_net::Response* resp) {
  std::string err;
  if (ap_net::is_binary_frame(payload))
    return ap_net::decode_response_binary(payload, resp, &err);
  auto doc = ap::json::parse(payload, &err);
  return doc && ap_net::response_from_json(*doc, resp, &err);
}

// Blocking hello on a fresh socket: the binary codec is used only when
// the server advertises it.
bool negotiate(int fd, std::string* err) {
  ap_net::Request hello;
  hello.type = ap_net::RequestType::Hello;
  hello.id = 1;
  std::string frame =
      ap_net::encode_frame(ap_net::request_to_json(hello).dump());
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    *err = "hello send failed";
    return false;
  }
  ap_net::set_recv_timeout_ms(fd, 5000);
  ap_net::FrameReader reader;
  char buf[4096];
  while (true) {
    if (auto payload = reader.next()) {
      ap_net::Response resp;
      if (!decode_response(*payload, &resp) || !resp.has_hello) {
        *err = "undecodable hello reply";
        return false;
      }
      if (!resp.hello.binary) {
        *err = "server does not offer the binary codec";
        return false;
      }
      return true;
    }
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      *err = "hello: no reply";
      return false;
    }
    reader.feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace

LoadGen::LoadGen(int port, size_t connections)
    : port_(port), conns_(connections) {}

LoadGen::~LoadGen() {
  for (auto& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

bool LoadGen::connect(std::string* err) {
  for (auto& c : conns_) {
    c.fd = ap_net::connect_tcp("127.0.0.1", port_, err);
    if (c.fd < 0 || !negotiate(c.fd, err) || !ap_net::set_nonblocking(c.fd))
      return false;
  }
  return true;
}

bool LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                       c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

void LoadGen::give_up(Conn& c, bool transport_failed, const DoneFn& done) {
  if (!c.busy) return;
  c.busy = false;
  c.inflight.transport_failed = transport_failed;
  done(c.inflight);
}

bool LoadGen::read_ready(Conn& c, const DoneFn& done) {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.reader.feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // closed or failed
  }
  while (auto payload = c.reader.next_view()) {
    ap_net::Response resp;
    if (!decode_response(*payload, &resp)) return false;
    // A reply to an earlier request arrived after its phase gave up on it
    // (already counted as unanswered); any other id is a protocol violation.
    if (!c.busy || resp.id != c.id) {
      if (resp.id >= 1 && resp.id < next_id_) continue;
      return false;
    }
    c.busy = false;
    c.inflight.done_ms = now_ms();
    c.inflight.resp = &resp;
    c.free_ms = c.inflight.done_ms;
    done(c.inflight);
  }
  return !c.reader.error();
}

LoadGen::PhaseResult LoadGen::run(const Phase& phase, const NextFn& next,
                                  const DoneFn& done) {
  PhaseResult pr;
  pr.start_ms = now_ms();
  pr.end_ms = pr.start_ms + phase.seconds * 1000.0;
  const double cpu0 = thread_cpu_s();
  const size_t n = std::min(phase.clients, conns_.size());
  for (size_t i = 0; i < n; ++i) conns_[i].free_ms = pr.start_ms;
  auto drop = [&](Conn& c) {
    give_up(c, /*transport_failed=*/true, done);
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  };

  std::string frame;
  std::vector<pollfd> fds(n);
  while (true) {
    double now = now_ms();
    const bool sending = now < pr.end_ms;
    size_t busy = 0;
    for (size_t i = 0; i < n; ++i) {
      Conn& c = conns_[i];
      if (sending && c.fd >= 0 && !c.busy) {
        ap_net::Request req;
        c.inflight = Outcome{};
        c.inflight.input = next(&req);
        c.inflight.ready_ms = c.free_ms;
        c.id = req.id = next_id_++;
        frame.clear();
        size_t hdr = ap_net::begin_frame(&frame);
        ap_net::encode_request_binary(req, &frame);
        ap_net::end_frame(&frame, hdr);
        c.inflight.sent_ms = now_ms();
        c.busy = true;
        c.out.append(frame);
        if (!flush(c)) drop(c);
      }
      busy += c.busy ? 1 : 0;
    }
    if (!sending && busy == 0) break;
    if (!sending && now >= pr.end_ms + kGraceMs) {
      for (size_t i = 0; i < n; ++i)
        give_up(conns_[i], /*transport_failed=*/false, done);
      break;
    }

    for (size_t i = 0; i < n; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec wait{0, 10'000'000};
    if (::ppoll(fds.data(), fds.size(), &wait, nullptr) <= 0) continue;
    for (size_t i = 0; i < n; ++i) {
      Conn& c = conns_[i];
      if (c.fd < 0 || fds[i].revents == 0) continue;
      bool ok = true;
      if (fds[i].revents & POLLOUT) ok = flush(c);
      if (ok && (fds[i].revents & (POLLIN | POLLERR | POLLHUP)))
        ok = read_ready(c, done);
      if (!ok) drop(c);
    }
  }
  pr.cpu_s = thread_cpu_s() - cpu0;
  return pr;
}

}  // namespace apbench

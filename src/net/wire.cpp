#include "net/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ap::net {

namespace {

void patch_be32(char* p, uint32_t n) {
  p[0] = static_cast<char>((n >> 24) & 0xFF);
  p[1] = static_cast<char>((n >> 16) & 0xFF);
  p[2] = static_cast<char>((n >> 8) & 0xFF);
  p[3] = static_cast<char>(n & 0xFF);
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size());
  append_frame(&out, payload);
  return out;
}

size_t begin_frame(std::string* out) {
  size_t pos = out->size();
  out->append(4, '\0');
  return pos;
}

void end_frame(std::string* out, size_t header_pos) {
  uint32_t n = static_cast<uint32_t>(out->size() - header_pos - 4);
  patch_be32(out->data() + header_pos, n);
}

void append_frame(std::string* out, std::string_view payload) {
  char hdr[4];
  patch_be32(hdr, static_cast<uint32_t>(payload.size()));
  out->append(hdr, 4);
  out->append(payload.data(), payload.size());
}

void FrameReader::feed(const char* data, size_t n) {
  if (error_) return;  // the stream is already unsynchronized
  if (pos_ == buf_.size()) {
    // Fully drained: recycle the allocation (capacity is kept, so a busy
    // connection stops allocating here after warm-up).
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ >= buf_.size() / 2) {
    // A partial frame sits behind a large consumed prefix; compact once
    // rather than letting the buffer creep.
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<std::string_view> FrameReader::next_view() {
  if (error_ || buf_.size() - pos_ < 4) return std::nullopt;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  uint32_t n = (static_cast<uint32_t>(p[0]) << 24) |
               (static_cast<uint32_t>(p[1]) << 16) |
               (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  if (n > max_frame_) {
    error_ = true;
    error_msg_ = "frame length " + std::to_string(n) +
                 " exceeds maximum " + std::to_string(max_frame_);
    buf_.clear();
    pos_ = 0;
    return std::nullopt;
  }
  if (buf_.size() - pos_ < 4 + static_cast<size_t>(n)) return std::nullopt;
  std::string_view payload(buf_.data() + pos_ + 4, n);
  pos_ += 4 + static_cast<size_t>(n);
  return payload;
}

std::optional<std::string> FrameReader::next() {
  std::optional<std::string_view> v = next_view();
  if (!v) return std::nullopt;
  return std::string(*v);
}

int listen_tcp(int port, int* bound_port, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (err) *err = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) < 0) {
    if (err) *err = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (bound_port) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0)
      *bound_port = ntohs(actual.sin_port);
    else
      *bound_port = port;
  }
  return fd;
}

bool resolve_ipv4(const std::string& host, std::string* literal,
                  std::string* err) {
  in_addr a{};
  if (::inet_pton(AF_INET, host.c_str(), &a) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (rc != 0 || !res) {
      if (err) *err = "cannot resolve host: " + host;
      if (res) ::freeaddrinfo(res);
      return false;
    }
    a = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  char buf[INET_ADDRSTRLEN];
  ::inet_ntop(AF_INET, &a, buf, sizeof(buf));
  *literal = buf;
  return true;
}

int connect_tcp(const std::string& host, int port, std::string* err,
                bool nonblocking) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // A name: resolving it may block, which a nonblocking caller (an
    // event loop) must never do.
    if (nonblocking) {
      if (err) *err = "not an IPv4 literal: " + host;
      return -1;
    }
    std::string literal;
    if (!resolve_ipv4(host, &literal, err)) return -1;
    ::inet_pton(AF_INET, literal.c_str(), &addr.sin_addr);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (nonblocking) set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      !(nonblocking && errno == EINPROGRESS)) {
    if (err) *err = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_recv_timeout_ms(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

}  // namespace ap::net

#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include "net/binproto.h"

#include <cerrno>
#include <cstring>
#include <utility>

namespace ap::net {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      binary_(other.binary_),
      reader_(std::move(other.reader_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    binary_ = other.binary_;
    reader_ = std::move(other.reader_);
  }
  return *this;
}

bool Client::connect(const std::string& host, int port, std::string* err,
                     int recv_timeout_ms) {
  close();
  fd_ = connect_tcp(host, port, err);
  if (fd_ < 0) return false;
  if (recv_timeout_ms > 0) set_recv_timeout_ms(fd_, recv_timeout_ms);
  reader_ = FrameReader(kDefaultMaxFrame);
  return true;
}

bool Client::connect(int port, std::string* err, int recv_timeout_ms) {
  return connect("127.0.0.1", port, err, recv_timeout_ms);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::send_raw(std::string_view bytes, std::string* err) {
  if (fd_ < 0) {
    if (err) *err = "not connected";
    return false;
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Client::send_frame(std::string_view payload, std::string* err) {
  return send_raw(encode_frame(payload), err);
}

std::optional<std::string> Client::recv_frame(std::string* err) {
  if (fd_ < 0) {
    if (err) *err = "not connected";
    return std::nullopt;
  }
  char buf[64 * 1024];
  while (true) {
    if (auto payload = reader_.next()) return payload;
    if (reader_.error()) {
      if (err) *err = reader_.error_message();
      return std::nullopt;
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      if (err) *err = "connection closed by server";
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (err) *err = "receive timed out";
      return std::nullopt;
    }
    if (err) *err = std::string("recv: ") + std::strerror(errno);
    return std::nullopt;
  }
}

bool Client::submit(Request req, int64_t* id_out, std::string* err) {
  if (req.id == 0) req.id = next_id_++;
  if (id_out) *id_out = req.id;
  // Frame + payload are built in place in the reused send buffer: no
  // per-request allocation once its capacity has grown.
  sendbuf_.clear();
  size_t hdr = begin_frame(&sendbuf_);
  if (binary_)
    encode_request_binary(req, &sendbuf_);
  else
    sendbuf_ += request_to_json(req).dump();
  end_frame(&sendbuf_, hdr);
  return send_raw(sendbuf_, err);
}

bool Client::recv_any(Response* resp, std::string* err) {
  auto payload = recv_frame(err);
  if (!payload) return false;
  std::string decode_err;
  bool ok = read_response(*payload, resp, &decode_err);
  if (!ok && err) *err = "undecodable response: " + decode_err;
  return ok;
}

bool Client::call(Request req, Response* resp, std::string* err) {
  if (!submit(std::move(req), nullptr, err)) return false;
  return recv_any(resp, err);
}

bool Client::negotiate(std::string* err, HelloInfo* info) {
  HelloInfo h;
  if (!hello(&h, err)) return false;
  binary_ = h.binary;
  if (info) *info = h;
  return true;
}

bool Client::hello(HelloInfo* info, std::string* err) {
  Request req;
  req.type = RequestType::Hello;
  Response resp;
  if (!call(std::move(req), &resp, err)) return false;
  if (resp.status != Status::Ok || !resp.has_hello) {
    if (err)
      *err = "server did not answer hello: " +
             std::string(status_name(resp.status)) +
             (resp.error.empty() ? "" : " (" + resp.error + ")");
    return false;
  }
  if (info) *info = resp.hello;
  return true;
}

}  // namespace ap::net

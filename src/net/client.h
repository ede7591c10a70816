// Blocking client for the apserved wire protocol: one TCP connection.
//
// Two usage shapes:
//   - call(): one outstanding request at a time (apclient single-shot,
//     tests). Sends, then blocks for the next response frame.
//   - submit()/recv_any(): pipelining. Submit N requests back to back,
//     then collect N responses as the server finishes them — responses
//     may return out of order and carry the echoed request id, which is
//     how callers re-associate them (`apclient --pipeline N` drives
//     this; net::Channel wraps it in a thread-safe multiplexer).
//
// Codec: JSON by default. After negotiate() — or an explicit
// set_binary(true) — requests are encoded with the binary TLV codec
// (binproto.h). Received frames are always decoded by sniffing the codec
// byte, so a client can speak JSON while accepting binary and vice versa.
//
// Not thread-safe; callers wanting concurrency open several Clients or
// use net::Channel.
#pragma once

#include <optional>
#include <string>

#include "net/protocol.h"
#include "net/wire.h"

namespace ap::net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  // Connects to host:port (hostname or IPv4 literal). `recv_timeout_ms`
  // bounds each blocking read (0 = wait forever).
  bool connect(const std::string& host, int port, std::string* err,
               int recv_timeout_ms = 0);
  // Loopback shorthand.
  bool connect(int port, std::string* err, int recv_timeout_ms = 0);
  void close();
  bool connected() const { return fd_ >= 0; }

  // Selects the request codec explicitly; negotiate() asks the server
  // first.
  void set_binary(bool on) { binary_ = on; }
  bool binary() const { return binary_; }

  // Hello-based codec negotiation: switches to the binary codec iff the
  // server advertises it (HelloInfo::binary). Returns false only on
  // transport failure — a JSON-only peer is a successful negotiation that
  // leaves the codec on JSON.
  bool negotiate(std::string* err, HelloInfo* info = nullptr);

  // Sends the request and blocks for the next response. False with *err
  // on transport failure (send/recv error, timeout, connection closed,
  // undecodable response) — protocol-level failures (overloaded,
  // deadline_exceeded, ...) are successful calls with that status in
  // *resp. Assigns a fresh id when req.id == 0.
  bool call(Request req, Response* resp, std::string* err);

  // Pipelining: send without waiting. The id assigned to the request
  // (fresh when req.id == 0) is stored in *id_out so the caller can match
  // the eventual response.
  bool submit(Request req, int64_t* id_out, std::string* err);

  // Blocks for the next response frame, whichever request it answers.
  bool recv_any(Response* resp, std::string* err);

  // Sends a `hello` and returns the server's version, role, drain state
  // and codec offer. False with *err on transport failure or a server
  // that does not answer hello.
  bool hello(HelloInfo* info, std::string* err);

  // Raw frame transport (exposed for protocol-hardening tests that must
  // send malformed payloads).
  bool send_frame(std::string_view payload, std::string* err);
  bool send_raw(std::string_view bytes, std::string* err);
  std::optional<std::string> recv_frame(std::string* err);

 private:
  int fd_ = -1;
  int64_t next_id_ = 1;
  bool binary_ = false;
  FrameReader reader_{kDefaultMaxFrame};
  std::string sendbuf_;  // reused per submit; frame built in place
};

}  // namespace ap::net

// Wire framing and socket plumbing for the serving layer.
//
// Every message — request or response — travels as one frame:
//
//   +----------------------------+----------------------+
//   | 4-byte big-endian length N | N bytes of payload   |
//   +----------------------------+----------------------+
//
// The length counts payload bytes only. The payload is one JSON document
// or one binary TLV message (first byte 0xB4 — see binproto.h); the codec
// is dispatched per frame by that first byte. A length prefix larger than
// the receiver's configured maximum is a protocol error: the receiver
// answers with a `protocol_error` response and closes the connection (it
// cannot resynchronize inside an untrusted stream). FrameReader is the
// incremental decoder used by both sides; it consumes bytes as they
// arrive and yields complete payloads, so it works unchanged over
// nonblocking sockets that deliver frames in arbitrary fragments. The
// buffer is reused across frames: consumption advances an offset instead
// of erasing the front, and the allocation is recycled once drained, so a
// busy connection settles into zero steady-state allocation in the reader
// (`next_view` additionally avoids the payload copy-out).
//
// The socket helpers below are the thin POSIX layer the server and client
// share: loopback TCP listen/connect and nonblocking mode. Everything
// returns -1 and fills *err instead of throwing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ap::net {

// Default per-frame payload ceiling (largest suite source is ~10 KB; this
// leaves three orders of magnitude of headroom for real programs while
// bounding per-connection buffering).
inline constexpr size_t kDefaultMaxFrame = 16 * 1024 * 1024;

// Prepends the 4-byte big-endian length prefix.
std::string encode_frame(std::string_view payload);

// Allocation-free framing for senders that build payloads in place:
// begin_frame appends a 4-byte length placeholder to *out and returns its
// offset; the caller then appends the payload bytes directly, and
// end_frame patches the placeholder with everything appended since. Lets
// the server encode a response straight into a connection's reusable
// output buffer with no intermediate payload string.
size_t begin_frame(std::string* out);
void end_frame(std::string* out, size_t header_pos);

// Appends prefix + payload to *out (the reusable-buffer form of
// encode_frame).
void append_frame(std::string* out, std::string_view payload);

class FrameReader {
 public:
  explicit FrameReader(size_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  // Append raw bytes received from the socket.
  void feed(const char* data, size_t n);

  // The next complete payload, or nullopt when more bytes are needed.
  // After an oversized length prefix, enters a sticky error state:
  // next() always returns nullopt and error() is true.
  std::optional<std::string> next();

  // Zero-copy variant: a view into the internal buffer, valid only until
  // the next feed()/next()/next_view() call. The server hot path decodes
  // straight from this view.
  std::optional<std::string_view> next_view();

  bool error() const { return error_; }
  const std::string& error_message() const { return error_msg_; }

  // Bytes currently buffered and not yet consumed (partial frame).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix; reclaimed in feed(), never erased here
  size_t max_frame_;
  bool error_ = false;
  std::string error_msg_;
};

// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
// port). Returns the listening fd, or -1 with *err set. *bound_port
// receives the actual port.
int listen_tcp(int port, int* bound_port, std::string* err);

// Resolves `host` (an IPv4 literal or a hostname, via getaddrinfo, which
// may block) to an IPv4 literal in *literal. False with *err set when it
// does not resolve.
bool resolve_ipv4(const std::string& host, std::string* literal,
                  std::string* err);

// Connects to host:port with Nagle off. Blocking by default, and then
// `host` is an IPv4 literal or a hostname (resolved via resolve_ipv4).
// With `nonblocking` nothing may block: `host` must be an IPv4 literal,
// and the fd is returned while the connect may still be in progress
// (writability reports its outcome through SO_ERROR). Returns the fd, or
// -1 with *err set when the connect failed at once.
int connect_tcp(const std::string& host, int port, std::string* err,
                bool nonblocking = false);

bool set_nonblocking(int fd);

// Sets SO_RCVTIMEO so blocking reads fail instead of hanging forever.
bool set_recv_timeout_ms(int fd, int timeout_ms);

}  // namespace ap::net

#include "net/binproto.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "net/schema.h"
#include "support/json.h"

namespace ap::net {

namespace {

// Message kind byte (payload byte 1, after the magic).
constexpr unsigned char kKindRequest = 0x01;
constexpr unsigned char kKindResponse = 0x02;

// End-of-message tag, closing the top-level stream and every submessage.
constexpr unsigned char kEnd = 0x00;

// Binary writer: tag byte + value for every field that differs from its
// default. Append-only; callers reuse the output buffer.
class BinWriter {
 public:
  explicit BinWriter(std::string* out) : out_(out) {}

  template <class T>
  void operator()(unsigned char tag, const char*, const T& x, const T& def) {
    if (schema::omitted(x, def)) return;
    size_t mark = out_->size();
    byte(tag);
    value(x);
    // A nested message that wrote no field is just tag + end: drop it.
    if (schema::Message<T> && out_->size() == mark + 2) out_->resize(mark);
  }
  template <class T>
  void opt(unsigned char tag, const char*, const bool& has, const T& x) {
    if (!has) return;
    byte(tag);
    value(x);
  }
  void hex(unsigned char tag, const char* key, const uint64_t& x) {
    (*this)(tag, key, x, uint64_t{0});
  }
  template <class G>
  void group(const char*, const G& g) {
    schema::fields(*this, const_cast<G&>(g));
  }

  template <class T>
  void value(const T& x) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      varint(static_cast<uint64_t>(x));
    } else if constexpr (std::is_floating_point_v<T>) {
      uint64_t bits = std::bit_cast<uint64_t>(x);
      for (int i = 0; i < 8; ++i)
        byte(static_cast<unsigned char>(bits >> (8 * i)));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      // Zigzag: small magnitudes of either sign stay small on the wire.
      int64_t v = x;
      varint((static_cast<uint64_t>(v) << 1) ^
             static_cast<uint64_t>(v >> 63));
    } else if constexpr (std::is_integral_v<T>) {
      varint(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      varint(x.size());
      // Grow past a long string, not just up to it: std::string grows to
      // fit exactly, so the next byte would reallocate and copy it again.
      if (out_->capacity() - out_->size() < x.size())
        out_->reserve(2 * (out_->size() + x.size()));
      out_->append(x);
    } else if constexpr (std::is_same_v<T, json::Value>) {
      // Metrics and span trees are schemaless and rare (operator polls,
      // traced requests), so they travel as embedded JSON text.
      value(x.dump());
    } else if constexpr (schema::Message<T>) {
      schema::fields(*this, const_cast<T&>(x));
      byte(kEnd);
    } else {
      varint(x.size());
      for (const auto& e : x) value(e);
    }
  }

  void byte(unsigned char b) { out_->push_back(static_cast<char>(b)); }

 private:
  void varint(uint64_t v) {
    while (v >= 0x80) {
      byte(static_cast<unsigned char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    byte(static_cast<unsigned char>(v));
  }

  std::string* out_;
};

// Binary reader: walks the schema in tag order against a one-tag
// lookahead, so an unknown or out-of-order tag is left unconsumed and
// fails the message's end check. Never reads past the end; the first
// failure latches and every later read returns zero.
class BinReader {
 public:
  explicit BinReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }
  bool at_end() const { return p_ == end_; }

  // Reads one message's fields and its end tag.
  template <class M>
  void message(M& m) {
    next_ = byte();
    schema::fields(*this, m);
    if (ok() && next_ != kEnd)
      fail("unknown or out-of-order tag " + std::to_string(next_));
  }

  template <class T>
  void operator()(unsigned char tag, const char*, T& x, const T& def) {
    if (ok() && next_ == tag) {
      value(x);
      next_ = byte();
    } else if constexpr (schema::Scalar<T>) {
      if (!(x == def)) x = def;  // `x` is fresh: only a wire default differs
    }
  }
  template <class T>
  void opt(unsigned char tag, const char*, bool& has, T& x) {
    if (!ok() || next_ != tag) return;
    has = true;
    value(x);
    next_ = byte();
  }
  void hex(unsigned char tag, const char* key, uint64_t& x) {
    (*this)(tag, key, x, uint64_t{0});
  }
  template <class G>
  void group(const char*, G& g) {
    schema::fields(*this, g);
  }

  template <class T>
  void value(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      uint64_t b = varint();
      if (b > 1) fail("bad bool");
      x = b == 1;
    } else if constexpr (std::is_enum_v<T>) {
      uint64_t e = varint();
      if (e >= schema::names(x).size()) return fail("unknown enum value");
      x = static_cast<T>(e);
    } else if constexpr (std::is_floating_point_v<T>) {
      if (end_ - p_ < 8) return fail("truncated double");
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i)
        bits |= static_cast<uint64_t>(static_cast<unsigned char>(*p_++))
                << (8 * i);
      x = std::bit_cast<double>(bits);
      // JSON cannot carry NaN or infinities; neither codec accepts them.
      if (!std::isfinite(x)) fail("non-finite double");
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      uint64_t z = varint();
      int64_t v = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
      if (!std::in_range<T>(v)) return fail("integer out of range");
      x = static_cast<T>(v);
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t v = varint();
      if (!std::in_range<T>(v)) return fail("integer out of range");
      x = static_cast<T>(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      uint64_t n = varint();
      if (n > remaining()) return fail("truncated string");
      x.assign(p_, n);
      p_ += n;
    } else if constexpr (std::is_same_v<T, json::Value>) {
      std::string text;
      value(text);
      if (!ok()) return;
      std::string perr;
      auto parsed = json::parse(text, &perr);
      if (!parsed || !parsed->is_object())
        return fail("bad embedded JSON object " + perr);
      x = std::move(*parsed);
    } else if constexpr (schema::Message<T>) {
      message(x);
    } else {
      // Every element takes at least one byte, which bounds the count.
      uint64_t n = varint();
      if (n > remaining()) return fail("bad element count");
      for (uint64_t i = 0; i < n && ok(); ++i) {
        typename T::value_type e{};
        value(e);
        schema::add(x, std::move(e));
      }
    }
  }

  unsigned char byte() {
    if (p_ == end_) fail("truncated message");
    return ok() ? static_cast<unsigned char>(*p_++) : kEnd;
  }

  void fail(std::string why) {
    if (ok()) err_ = std::move(why);
    p_ = end_;
  }

 private:
  uint64_t remaining() const { return static_cast<uint64_t>(end_ - p_); }

  uint64_t varint() {
    uint64_t v = 0;
    for (int shift = 0; ok(); shift += 7) {
      unsigned char b = byte();
      if (shift >= 63 && b > 1) fail("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
    }
    return ok() ? v : 0;
  }

  const char* p_;
  const char* end_;
  unsigned char next_ = kEnd;
  std::string err_;
};

template <class M>
void encode(unsigned char kind, const M& m, std::string* out) {
  BinWriter w(out);
  w.byte(kBinaryMagic);
  w.byte(kind);
  w.value(m);
}

// Decodes into a default-constructed `m`; callers move it out on success.
template <class M>
bool decode(std::string_view payload, unsigned char kind, M& m,
            std::string* err) {
  BinReader r(payload);
  if (r.byte() != kBinaryMagic || r.byte() != kind) {
    if (err)
      *err = kind == kKindRequest ? "not a binary request frame"
                                  : "not a binary response frame";
    return false;
  }
  r.message(m);
  if (r.ok() && !r.at_end()) r.fail("trailing bytes after message");
  if (!r.ok() && err) *err = r.error();
  return r.ok();
}

}  // namespace

void encode_request_binary(const Request& r, std::string* out) {
  encode(kKindRequest, r, out);
}

std::string encode_request_binary(const Request& r) {
  std::string out;
  encode_request_binary(r, &out);
  return out;
}

bool decode_request_binary(std::string_view payload, Request* out,
                           std::string* err) {
  Request r;
  if (!decode(payload, kKindRequest, r, err) || !validate(r, err))
    return false;
  *out = std::move(r);
  return true;
}

void encode_response_binary(const Response& r, std::string* out) {
  encode(kKindResponse, r, out);
}

std::string encode_response_binary(const Response& r) {
  std::string out;
  encode_response_binary(r, &out);
  return out;
}

bool decode_response_binary(std::string_view payload, Response* out,
                            std::string* err) {
  Response r;
  if (!decode(payload, kKindResponse, r, err)) return false;
  *out = std::move(r);
  return true;
}

bool read_request(std::string_view payload, Request* out, std::string* err) {
  if (!is_binary_frame(payload)) {
    std::string perr;
    auto doc = json::parse(payload, &perr);
    if (!doc && err) *err = "malformed JSON payload: " + perr;
    return doc && schema::read_request_json(*doc, out, err);
  }
  Request r;
  if (!decode(payload, kKindRequest, r, err)) return false;
  *out = std::move(r);
  return true;
}

bool read_response(std::string_view payload, Response* out, std::string* err) {
  if (is_binary_frame(payload)) return decode_response_binary(payload, out, err);
  auto doc = json::parse(payload, err);
  return doc && response_from_json(*doc, out, err);
}

}  // namespace ap::net

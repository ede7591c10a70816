// The binary TLV codec, and codec dispatch per frame.
//
// Encodes the message set of protocol.h as a compact tag-value stream
// instead of JSON. Both codecs are derived from the one field list in
// net/schema.h. The first payload byte is the magic 0xB4 — which can never
// open a JSON document — so binary and JSON frames coexist on one
// connection and the receiver dispatches per frame. A server answers each
// request in the codec it arrived in; clients switch to binary only after
// a `hello` offered it (HelloInfo::binary).
//
// Layout of one payload:
//
//   +------+------+----------------------------+
//   | 0xB4 | kind | fields ... | 0x00 end tag  |
//   +------+------+----------------------------+
//
// `kind` is 0x01 for requests, 0x02 for responses. Each field is one tag
// byte followed by a value whose wire form follows from the field's type:
// unsigned LEB128 varints for unsigned counters, bools and enums, zigzag
// varints for signed integers, length-prefixed bytes for strings, 8
// little-endian bytes for doubles, a varint count then the elements for
// vectors and sets, and end-tag-terminated sub-streams (same tag-value
// form, closed by 0x00 — no length prefix, so encoding is single-pass) for
// nested messages. Fields appear in ascending tag order and a field equal
// to its default is omitted.
//
// The decoder walks the schema in tag order and is strict: an unknown or
// out-of-order tag, a truncated or out-of-range value, a non-finite
// double, or trailing bytes is an error. It never throws and never reads
// out of bounds; the server maps a failure to `protocol_error`.
//
// The equivalence contract, held by tests/net_test.cpp and the decoder
// fuzz test: for every message m, json(decode_binary(encode_binary(m))) is
// byte-identical to json(m). The binary codec adds a transport encoding,
// never a semantic.
#pragma once

#include <string>
#include <string_view>

#include "net/protocol.h"

namespace ap::net {

// First byte of every binary payload; never '{' or whitespace, so a JSON
// receiver cannot confuse the two.
inline constexpr unsigned char kBinaryMagic = 0xB4;

// True when `payload` claims to be a binary frame (magic byte match — the
// cheap per-frame codec dispatch).
inline bool is_binary_frame(std::string_view payload) {
  return !payload.empty() &&
         static_cast<unsigned char>(payload[0]) == kBinaryMagic;
}

// Append the binary encoding of the message to *out (existing contents
// are preserved — callers reuse per-connection scratch buffers so the
// warm path does not allocate per frame once capacity has grown).
void encode_request_binary(const Request& r, std::string* out);
void encode_response_binary(const Response& r, std::string* out);

// Convenience forms returning a fresh buffer.
std::string encode_request_binary(const Request& r);
std::string encode_response_binary(const Response& r);

// Strict decoders. False with *err on any malformed input (bad magic,
// bad kind, unknown tag, truncated value, trailing bytes); the request
// decoder also runs validate().
bool decode_request_binary(std::string_view payload, Request* out,
                           std::string* err);
bool decode_response_binary(std::string_view payload, Response* out,
                            std::string* err);

// Either codec, dispatched on the payload's first byte: the structural
// decode only, without validate(), so the server can answer `hello` for
// any claimed version, and a version mismatch with `unsupported_version`,
// before the semantic checks run.
bool read_request(std::string_view payload, Request* out, std::string* err);

// Either codec, dispatched on the payload's first byte: a response frame
// as a client receives it.
bool read_response(std::string_view payload, Response* out, std::string* err);

}  // namespace ap::net

// Seeded mutation fuzzer over the four wire decoders: request and response,
// JSON and binary. Inputs are the encodings of the shared corpus
// (tests/net_corpus.h) — every request type and every response shape —
// mutated by byte flips, truncations, insertions and length-prefix
// inflation. The budget and the seed are fixed, so a failure reproduces.
//
// Invariants, for every mutated input:
//   - decoding never crashes or hangs;
//   - a rejected input always comes with a reason in *err;
//   - an accepted message re-encodes and decodes to the same JSON dump
//     through both codecs (the binary and JSON decoders agree on every
//     message either of them accepts).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "net/binproto.h"
#include "tests/net_corpus.h"

namespace ap {
namespace {

constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;
constexpr int kIterations = 20'000;  // per decoder
constexpr size_t kMaxReported = 8;

std::string mutate(std::string s, std::mt19937_64& rng, bool binary) {
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng() % (n == 0 ? 1 : n));
  };
  int rounds = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < rounds; ++i) {
    switch (rng() % 4) {
      case 0:  // flip bits of one byte
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 + rng() % 255);
        break;
      case 1:  // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 2:  // insert a random byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 static_cast<char>(rng()));
        break;
      case 3: {  // inflate a length prefix (binary) or a number (JSON)
        size_t at = pick(s.size() + 1);
        if (binary) {
          s.replace(at, at < s.size() ? 1 : 0, "\xff\xff\xff\xff\x0f");
        } else {
          s.insert(at, "99999999999999999999");
        }
        break;
      }
    }
  }
  return s;
}

// Decoding through one codec and checking the invariants, per message type.
template <class M>
struct Codec {
  json::Value (*to_json)(const M&);
  bool (*from_json)(const json::Value&, M*, std::string*);
  std::string (*encode_binary)(const M&);
  bool (*decode_binary)(std::string_view, M*, std::string*);
};

template <class M>
void fuzz(const Codec<M>& c, const std::vector<M>& seeds, bool binary,
          uint64_t seed) {
  std::vector<std::string> inputs;
  for (const M& m : seeds)
    inputs.push_back(binary ? c.encode_binary(m) : c.to_json(m).dump());
  std::mt19937_64 rng(seed);
  std::vector<std::string> failures;
  size_t accepted = 0;
  auto report = [&](const std::string& what, const std::string& input) {
    if (failures.size() < kMaxReported)
      failures.push_back(what + " on input " + testing::PrintToString(input));
  };
  for (int it = 0; it < kIterations; ++it) {
    std::string input = mutate(inputs[rng() % inputs.size()], rng, binary);
    M m;
    std::string err;
    bool ok;
    if (binary) {
      ok = c.decode_binary(input, &m, &err);
    } else {
      auto doc = json::parse(input, &err);
      ok = doc && c.from_json(*doc, &m, &err);
    }
    if (!ok) {
      if (err.empty()) report("rejection without a reason", input);
      continue;
    }
    ++accepted;
    const std::string dump = c.to_json(m).dump();
    M via_binary;
    if (!c.decode_binary(c.encode_binary(m), &via_binary, &err))
      report("binary re-decode failed (" + err + ")", input);
    else if (c.to_json(via_binary).dump() != dump)
      report("binary round trip changed " + dump, input);
    M via_json;
    auto doc = json::parse(dump, &err);
    if (!doc || !c.from_json(*doc, &via_json, &err))
      report("JSON re-decode failed (" + err + ")", input);
    else if (c.to_json(via_json).dump() != dump)
      report("JSON round trip changed " + dump, input);
  }
  for (const auto& f : failures) ADD_FAILURE() << f;
  // The mutations must leave some inputs decodable, or the round-trip
  // invariant was never exercised.
  EXPECT_GT(accepted, 0u);
}

std::vector<net::Request> request_seeds() {
  std::vector<net::Request> out;
  for (auto type : net_corpus::kAllRequestTypes)
    out.push_back(net_corpus::rich_request(type));
  return out;
}

const Codec<net::Request> kRequestCodec = {
    net::request_to_json, net::request_from_json,
    static_cast<std::string (*)(const net::Request&)>(
        net::encode_request_binary),
    net::decode_request_binary};

const Codec<net::Response> kResponseCodec = {
    net::response_to_json, net::response_from_json,
    static_cast<std::string (*)(const net::Response&)>(
        net::encode_response_binary),
    net::decode_response_binary};

TEST(WireFuzz, BinaryRequestDecoder) {
  fuzz(kRequestCodec, request_seeds(), true, kSeed);
}

TEST(WireFuzz, JsonRequestDecoder) {
  fuzz(kRequestCodec, request_seeds(), false, kSeed + 1);
}

TEST(WireFuzz, BinaryResponseDecoder) {
  fuzz(kResponseCodec, net_corpus::response_shapes(), true, kSeed + 2);
}

TEST(WireFuzz, JsonResponseDecoder) {
  fuzz(kResponseCodec, net_corpus::response_shapes(), false, kSeed + 3);
}

}  // namespace
}  // namespace ap

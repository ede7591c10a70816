// Seeded mutation fuzzers over the two text decoders outside the wire
// codecs that read untrusted bytes: service::deserialize_result (a
// `.apc` disk-tier file, a peer's cache_fill or cache_probe payload) and
// the support/json parser (every JSON frame). Inputs are real encodings —
// serialize_result output of suite compiles, a telemetry report — mutated
// by tests/byte_mutator.h plus, for the result decoder, numbers swapped for
// random 64-bit values so block lengths reach the huge ones a hostile
// frame carries. The budget and the seed are fixed, so a failure
// reproduces.
//
// Invariants, for every mutated input:
//   - decoding never crashes, throws or hangs;
//   - an accepted input re-encodes to bytes that decode again and
//     re-encode to the same bytes (decode -> encode -> decode round trip).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "service/scheduler.h"
#include "service/telemetry.h"
#include "suite/suite.h"
#include "support/json.h"
#include "tests/byte_mutator.h"

namespace ap {
namespace {

constexpr uint64_t kSeed = 0x2545f4914f6cdd1dull;
constexpr int kIterations = 20'000;  // per decoder
constexpr size_t kMaxReported = 8;

// Replaces the digit run around a random digit with a random decimal of
// up to 20 digits (any uint64_t, 2^64-1 included).
std::string swap_number(std::string s, std::mt19937_64& rng) {
  std::vector<size_t> digits;
  for (size_t i = 0; i < s.size(); ++i)
    if (s[i] >= '0' && s[i] <= '9') digits.push_back(i);
  if (digits.empty()) return s;
  size_t begin = digits[rng() % digits.size()], end = begin;
  while (begin > 0 && s[begin - 1] >= '0' && s[begin - 1] <= '9') --begin;
  while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
  uint64_t v = rng() % 4 == 0 ? ~0ull : rng() >> (rng() % 64);
  s.replace(begin, end - begin, std::to_string(v));
  return s;
}

// Mutates a corpus entry, then applies the invariants through `decode`
// (nullopt = rejected) and `encode`.
template <class M, class Decode, class Encode>
void fuzz(const std::vector<std::string>& seeds, uint64_t seed,
          bool swap_numbers, Decode decode, Encode encode) {
  ASSERT_FALSE(seeds.empty());
  std::mt19937_64 rng(seed);
  std::vector<std::string> failures;
  size_t accepted = 0;
  auto report = [&](const std::string& what, const std::string& input) {
    if (failures.size() < kMaxReported)
      failures.push_back(what + " on input " +
                         testing::PrintToString(input.substr(0, 512)));
  };
  for (int it = 0; it < kIterations; ++it) {
    std::string input = seeds[rng() % seeds.size()];
    if (swap_numbers && rng() % 2) input = swap_number(std::move(input), rng);
    input = fuzz::mutate(std::move(input), rng, /*binary=*/false);
    std::optional<M> m;
    try {
      m = decode(input);
    } catch (const std::exception& e) {
      report(std::string("decoder threw ") + e.what(), input);
      continue;
    }
    if (!m) continue;
    ++accepted;
    const std::string once = encode(*m);
    std::optional<M> again = decode(once);
    if (!again)
      report("re-decode of the re-encoding failed: " +
                 testing::PrintToString(once.substr(0, 512)),
             input);
    else if (encode(*again) != once)
      report("round trip changed " + testing::PrintToString(once), input);
  }
  for (const auto& f : failures) ADD_FAILURE() << f;
  // The mutations must leave some inputs decodable, or the round-trip
  // invariant was never exercised.
  EXPECT_GT(accepted, 0u);
}

// serialize_result output of real suite compiles: every pass record
// populated, one result carrying a print_after dump, one cut short by
// stop_after.
std::vector<std::string> result_seeds() {
  std::vector<std::string> out;
  auto add = [&](const char* app, driver::InlineConfig cfg,
                 const std::string& print_after,
                 const std::string& stop_after) {
    const suite::BenchmarkApp* a = suite::find_app(app);
    EXPECT_TRUE(a != nullptr) << app;
    if (!a) return;
    driver::PipelineOptions o;
    o.config = cfg;
    o.print_after = print_after;
    o.stop_after = stop_after;
    service::CompileResult r =
        service::to_compile_result(driver::run_pipeline(*a, o));
    EXPECT_TRUE(r.ok) << app;
    out.push_back(service::serialize_result(r));
  };
  add("TRFD", driver::InlineConfig::Annotation, "", "");
  add("DYFESM", driver::InlineConfig::Conventional, "", "");
  add("MDG", driver::InlineConfig::None, "normalize", "");
  add("TRFD", driver::InlineConfig::None, "", "normalize");
  return out;
}

// A telemetry report over a small batch (nested objects, doubles,
// strings), plus one document exercising every escape and number form.
std::vector<std::string> json_seeds() {
  service::ResultCache cache(8);
  service::Telemetry telemetry;
  service::Scheduler::Options so;
  so.cache = &cache;
  so.telemetry = &telemetry;
  service::Scheduler sched(so);
  std::vector<service::CompileJob> jobs = service::suite_matrix();
  jobs.resize(2);
  sched.run_batch(jobs);
  telemetry.record_cache_stats(cache.stats());
  return {
      telemetry.to_json(),
      R"({"s": "q\"b\\s\/\b\f\n\r\t é 😀", )"
      R"("n": [0, -12, 9223372036854775807, -9223372036854775808, 1.5, )"
      R"(-2.25e-7, 6.02e+23], "b": [true, false, null], "o": {"a": [[], {}]}})",
  };
}

TEST(DecoderFuzz, CacheResultDecoder) {
  fuzz<service::CompileResult>(
      result_seeds(), kSeed, /*swap_numbers=*/true,
      [](const std::string& text) { return service::deserialize_result(text); },
      [](const service::CompileResult& r) {
        return service::serialize_result(r);
      });
}

TEST(DecoderFuzz, JsonParser) {
  fuzz<json::Value>(
      json_seeds(), kSeed + 1, /*swap_numbers=*/false,
      [](const std::string& text) {
        std::string err;
        auto v = json::parse(text, &err);
        // A rejection always names its reason.
        if (!v && err.empty()) throw std::runtime_error("no reason given");
        return v;
      },
      [](const json::Value& v) { return v.dump(); });
}

}  // namespace
}  // namespace ap

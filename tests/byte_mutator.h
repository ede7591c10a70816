// Seeded byte mutations shared by the decoder fuzzers (wire_fuzz_test,
// decoder_fuzz_test): byte flips, truncations, insertions and
// length-prefix inflation. Every choice comes from the caller's generator,
// so a fixed seed reproduces a failing input.
#pragma once

#include <cstddef>
#include <random>
#include <string>

namespace ap::fuzz {

// One to three mutation rounds over `s`. `binary` selects what an
// inflation inserts: an oversized varint for binary frames, a long run of
// digits for text.
inline std::string mutate(std::string s, std::mt19937_64& rng, bool binary) {
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
      case 3: {  // inflate a length prefix (binary) or a number (text)
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

}  // namespace ap::fuzz

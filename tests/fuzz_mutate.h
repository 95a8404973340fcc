// The byte-level mutator the seeded fuzz tests share: each decoder test
// draws mutations of real encoded inputs from an Rng with a fixed seed,
// so every run replays the same inputs and a finding reproduces.

#ifndef MIVID_TESTS_FUZZ_MUTATE_H_
#define MIVID_TESTS_FUZZ_MUTATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.h"

namespace mivid::test {

/// One mutation of `input`, drawn from `rng`: bit flips, a truncation, a
/// splice with `other`, a duplicated span, or random bytes overwritten.
inline std::string Mutate(const std::string& input, const std::string& other,
                          Rng* rng) {
  std::string out = input;
  auto pick = [&](size_t n) {
    return n == 0 ? size_t{0}
                  : static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  switch (rng->UniformInt(0, 4)) {
    case 0: {  // bit flips
      const int flips = static_cast<int>(rng->UniformInt(1, 8));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[pick(out.size())] ^= static_cast<char>(1 << rng->UniformInt(0, 7));
      }
      break;
    }
    case 1:  // truncation
      out.resize(pick(out.size() + 1));
      break;
    case 2:  // splice: a prefix of one input, a suffix of another
      out = out.substr(0, pick(out.size() + 1)) +
            other.substr(pick(other.size() + 1));
      break;
    case 3: {  // duplicate a span in place
      const size_t begin = pick(out.size() + 1);
      const size_t len = pick(out.size() - begin + 1);
      out.insert(begin, out.substr(begin, len));
      break;
    }
    default: {  // overwrite a run with random bytes
      const size_t begin = pick(out.size() + 1);
      const size_t len = std::min<size_t>(out.size() - begin, 1 + pick(16));
      for (size_t i = 0; i < len; ++i) {
        out[begin + i] = static_cast<char>(rng->UniformInt(0, 255));
      }
      break;
    }
  }
  return out;
}

}  // namespace mivid::test

#endif  // MIVID_TESTS_FUZZ_MUTATE_H_

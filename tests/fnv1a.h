// 64-bit FNV-1a over the bytes of test outputs, for golden pins that
// must hold bit for bit (doubles are hashed by their bit patterns).

#ifndef MIVID_TESTS_FNV1A_H_
#define MIVID_TESTS_FNV1A_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mivid::test {

/// 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace mivid::test

#endif  // MIVID_TESTS_FNV1A_H_

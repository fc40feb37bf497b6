#ifndef AGSC_TESTS_CRC_REFERENCE_H_
#define AGSC_TESTS_CRC_REFERENCE_H_

#include <cstddef>
#include <cstdint>

namespace agsc::testing {

/// Bit-at-a-time CRC-32 straight from the reflected polynomial 0xEDB88320,
/// chainable through `seed` like util::Crc32: the independent reference
/// every tier of util::Crc32, and every hand-built frame in the tests, is
/// checked against.
inline uint32_t BytewiseCrc32(const void* data, size_t n, uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace agsc::testing

#endif  // AGSC_TESTS_CRC_REFERENCE_H_

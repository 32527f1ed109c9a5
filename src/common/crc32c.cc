#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace durassd {

namespace {

// Table-driven CRC-32C, reflected polynomial 0x82F63B78.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C, eight
// bytes per step. memcpy loads keep unaligned input well-defined.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t seed) {
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool HaveSse42() {
  static const bool kHave = __builtin_cpu_supports("sse4.2");
  return kHave;
}
#endif

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  if (HaveSse42()) {
    return Crc32cSse42(static_cast<const uint8_t*>(data), n, seed);
  }
#endif
  return Crc32cPortable(data, n, seed);
}

}  // namespace durassd

#ifndef DURASSD_COMMON_CRC32C_H_
#define DURASSD_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace durassd {

/// CRC-32C (Castagnoli). Used for page checksums so torn writes injected by
/// the power-failure machinery are detectable exactly like InnoDB detects
/// partial page writes. Chains: Crc32c(b, Crc32c(a)) == Crc32c(a + b).
/// Runs on the SSE4.2 crc32 instruction when the CPU has it, otherwise on
/// the table-driven Crc32cPortable; both give the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The table-driven implementation, for any CPU. Exposed so tests can
/// cross-check the hardware path against it.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace durassd

#endif  // DURASSD_COMMON_CRC32C_H_

#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// checksum shared by the wire frames (net/wire) and the checkpoint format
// (nn/checkpoint). Supports incremental updates: feed chunks through
// crc32_update() starting from kCrc32Init and finalize with crc32_final().
// The update folds eight bytes per step (slice-by-8); its output equals the
// bit-at-a-time definition for any chunking.

#include <cstddef>
#include <cstdint>

namespace afl {

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `size` bytes into a running CRC state (start from kCrc32Init).
std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t size);

/// Final xor-out step.
inline std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

/// One-shot CRC-32 of a buffer. crc32("123456789") == 0xCBF43926.
inline std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_final(crc32_update(kCrc32Init, data, size));
}

}  // namespace afl

#include "util/crc32.hpp"

#include <array>

namespace afl {
namespace {

// Slice-by-8 tables. kTables[0] is the classic byte-at-a-time table;
// kTables[j][b] is the CRC state after byte b followed by j zero bytes, so
// eight lookups fold eight input bytes in one step.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load, assembled by hand so the result does not depend on the
// host's byte order (compilers fold it into one load where they can).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t size) {
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace afl

// Textbook bytewise CRC-32: the oracle that net::wire::crc32 must match at
// every length and alignment. One byte per step through one 256-entry table
// of the reflected IEEE polynomial 0xEDB88320, built at run time here so
// the oracle shares no table with the code under test.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace resmon::oracle {

inline std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace resmon::oracle

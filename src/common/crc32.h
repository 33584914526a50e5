#ifndef DDC_COMMON_CRC32_H_
#define DDC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ddc {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
/// durability layer stamps on every WAL record and snapshot section.
/// Slice-by-8: eight bytes per step through eight 256-entry tables, so a
/// snapshot save's checksum pass runs at memory speed rather than at one
/// table lookup per byte. Same checksums as the bytewise walk.

/// CRC of `n` bytes at `data`, continuing from `seed` (0 for a fresh
/// checksum). Chain calls to checksum discontiguous pieces:
///   crc = Crc32(a, na); crc = Crc32(b, nb, crc);
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace ddc

#endif  // DDC_COMMON_CRC32_H_

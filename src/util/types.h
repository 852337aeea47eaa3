// Fundamental type aliases used across the ZapC reproduction.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace zapc {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Raw byte buffer; the unit of all queue, packet, and image payloads.
using Bytes = std::vector<u8>;

/// Read-only view of bytes owned elsewhere (a record payload borrowed
/// from its image).  Valid only while the owning buffer is alive and
/// unmodified.
using ByteView = std::span<const u8>;

/// Appends the contents of `src` to `dst`.
inline void append_bytes(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Appends `n` bytes starting at `p` to `dst`.
inline void append_bytes(Bytes& dst, const u8* p, std::size_t n) {
  dst.insert(dst.end(), p, p + n);
}

/// Converts a string to bytes (no terminator).
inline Bytes to_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// Converts bytes back to a string.
inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace zapc

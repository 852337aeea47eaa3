// CRC-32 (IEEE 802.3 polynomial) used to validate checkpoint image records.
#pragma once

#include <cstddef>

#include "util/types.h"

namespace zapc {

/// Computes CRC-32 over `n` bytes starting at `p`.
u32 crc32(const u8* p, std::size_t n);

/// Computes CRC-32 over a byte buffer.
inline u32 crc32(const Bytes& b) { return crc32(b.data(), b.size()); }

/// Incremental interface: start with crc32_init(), fold in chunks with
/// crc32_update(), close with crc32_final().  crc32_update dispatches on
/// CPU capability, chosen once per process: on x86 hosts with PCLMULQDQ
/// the 16-byte-aligned bulk of any input of 64 bytes or more goes through
/// a carry-less-multiply fold-by-4 with Barrett reduction, and the
/// unaligned head and short tail through the slice-by-8 table walk.
/// Hosts without PCLMULQDQ use the table walk throughout.  Both paths
/// compute the same reflected polynomial, so results are bit-identical.
u32 crc32_init();
u32 crc32_update(u32 state, const u8* p, std::size_t n);
u32 crc32_final(u32 state);

/// The slice-by-8 table walk (8 input bytes per iteration) on its own:
/// crc32_update's fallback and tail handler, exposed so tests cover it
/// on hosts where the fold is active.
u32 crc32_update_slice8(u32 state, const u8* p, std::size_t n);

/// Reference one-byte-per-iteration update.  Produces identical results
/// to crc32_update; kept as the test reference, for the bench_micro
/// before/after comparison, and as the tail handler of the sliced walk.
u32 crc32_update_bytewise(u32 state, const u8* p, std::size_t n);

}  // namespace zapc

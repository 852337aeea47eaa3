#include "util/crc32.h"

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ZAPC_CRC32_CLMUL 1
#endif

namespace zapc {
namespace {

// Slice-by-8 lookup tables: table[0] is the classic bytewise table;
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
// table lookups advance the state by eight input bytes at once.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    u32 c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

const CrcTables& tables() {
  static const CrcTables t = make_tables();
  return t;
}

}  // namespace

u32 crc32_init() { return 0xFFFFFFFFu; }

u32 crc32_update_bytewise(u32 state, const u8* p, std::size_t n) {
  const auto& t = tables()[0];
  for (std::size_t i = 0; i < n; ++i) {
    state = t[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

u32 crc32_update_slice8(u32 state, const u8* p, std::size_t n) {
  const CrcTables& t = tables();
  // Align to 8 bytes of input, then fold 8 bytes per iteration.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    state = t[0][(state ^ *p++) & 0xFFu] ^ (state >> 8);
    --n;
  }
  while (n >= 8) {
    u64 chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    // The wire format (and the historical images this must keep
    // validating) is little-endian, as is every target we build for.
    u32 lo = static_cast<u32>(chunk) ^ state;
    u32 hi = static_cast<u32>(chunk >> 32);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][(lo >> 24) & 0xFFu] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][(hi >> 24) & 0xFFu];
    p += 8;
    n -= 8;
  }
  return crc32_update_bytewise(state, p, n);
}

#ifdef ZAPC_CRC32_CLMUL
namespace {

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) for the
// bit-reflected IEEE polynomial.  Four 128-bit lanes fold 64 input bytes
// per iteration; the lanes then fold into one, the 128-bit remainder
// folds to 64 bits, and Barrett reduction yields the 32-bit state.  The
// constants are x^k mod P(x) for the fold distances (k1/k2: 512 ± 32
// bits, k3/k4: 128 ± 32, k5: 64), the polynomial P' and the Barrett
// quotient mu, all bit-reflected.
#define ZAPC_CLMUL_TARGET __attribute__((target("pclmul,sse2")))

ZAPC_CLMUL_TARGET inline __m128i load(const u8* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// One fold step: multiply both halves of `x` by the fold constants and
// add (xor) in the next 128 bits of input.
ZAPC_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// `n` must be a multiple of 16, at least 64.
ZAPC_CLMUL_TARGET u32 crc32_fold_clmul(u32 state, const u8* p,
                                       std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
    p += 64;
    n -= 64;
  }
  // Four lanes into one, then any remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = fold(x1, k3k4, load(p));
    p += 16;
    n -= 16;
  }
  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<u32>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

bool has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse2");
  }();
  return has;
}

}  // namespace

u32 crc32_update(u32 state, const u8* p, std::size_t n) {
  if (n < 64 || !has_clmul()) return crc32_update_slice8(state, p, n);
  // Table-walk the head up to a 16-byte boundary, fold the aligned
  // 16-byte-multiple bulk, table-walk the tail.
  std::size_t head = (16 - (reinterpret_cast<uintptr_t>(p) & 15u)) & 15u;
  state = crc32_update_slice8(state, p, head);
  p += head;
  n -= head;
  std::size_t bulk = n & ~std::size_t{15};
  if (bulk >= 64) {
    state = crc32_fold_clmul(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return crc32_update_slice8(state, p, n);
}
#else
u32 crc32_update(u32 state, const u8* p, std::size_t n) {
  return crc32_update_slice8(state, p, n);
}
#endif

u32 crc32_final(u32 state) { return state ^ 0xFFFFFFFFu; }

u32 crc32(const u8* p, std::size_t n) {
  return crc32_final(crc32_update(crc32_init(), p, n));
}

}  // namespace zapc

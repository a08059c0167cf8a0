#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bng::crypto {

namespace {

using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n_blocks);

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n_blocks) {
  for (const std::uint8_t* block = blocks; n_blocks > 0; --n_blocks, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
             static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
/// The SHA-NI kernel. `sha256rnds2` runs two rounds on the state held as
/// two lanes-of-four, {A, B, E, F} and {C, D, G, H}, taking W[t] + K[t] for
/// both rounds from the low half of its third operand; `sha256msg1` and
/// `sha256msg2` extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t state[8],
                                                          const std::uint8_t* blocks,
                                                          std::size_t n_blocks) {
  // Reverses the bytes of each 32-bit lane: message words are big-endian.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  // Rearrange {a, b, c, d} and {e, f, g, h} into the lanes sha256rnds2
  // takes, named from lane 3 down to lane 0: {A, B, E, F} and {C, D, G, H}.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[i % 4] holds the schedule words W[4i .. 4i+3] once step i has run.
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), byte_swap);
      } else {
        // W[t..t+3] from W[t-16..t-13], W[t-12..t-9], W[t-7..t-4], W[t-4..t-1].
        __m128i x = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
        w[i % 4] = _mm_sha256msg2_epu32(x, w[(i + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          w[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
      // Two rounds leave the old {A, B, E, F} as the new {C, D, G, H}, so the
      // two registers swap roles and swap back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // And back: {A, B, E, F}, {C, D, G, H} -> {a, b, c, d}, {e, f, g, h}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

CompressFn compress_of(Sha256Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == Sha256Kernel::kShaNi) return compress_shani;
#endif
  (void)kernel;
  return compress_portable;
}

}  // namespace

bool sha256_kernel_supported(Sha256Kernel kernel) {
  if (kernel == Sha256Kernel::kPortable) return true;
#if defined(__x86_64__)
  // The first hash may run during static initialisation, before the
  // runtime has filled the CPU model __builtin_cpu_supports reads.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

Sha256Kernel sha256_kernel() {
  static const Sha256Kernel kernel = sha256_kernel_supported(Sha256Kernel::kShaNi)
                                         ? Sha256Kernel::kShaNi
                                         : Sha256Kernel::kPortable;
  return kernel;
}

const char* sha256_kernel_name(Sha256Kernel kernel) {
  return kernel == Sha256Kernel::kShaNi ? "sha-ni" : "portable";
}

Sha256::Sha256() : compress_(compress_of(sha256_kernel())) {
  std::memcpy(state_, kInit, sizeof state_);
}

Sha256::Sha256(Sha256Kernel kernel) : compress_(compress_of(kernel)) {
  if (!sha256_kernel_supported(kernel))
    throw std::invalid_argument(std::string("Sha256: this CPU cannot run the ") +
                                sha256_kernel_name(kernel) + " kernel");
  std::memcpy(state_, kInit, sizeof state_);
}

Sha256& Sha256::update(std::string_view text) {
  return update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    std::size_t need = 64 - buffered_;
    std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      compress_(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t full = (data.size() - off) / 64; full > 0) {
    compress_(state_, data.data() + off, full);
    off += 64 * full;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
  return *this;
}

Hash256 Sha256::finalize() {
  // Pad: 0x80, zeros, 64-bit big-endian bit length.
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72];
  std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i)
    pad[pad_len + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  update(std::span(pad, pad_len + 8));

  Hash256 out;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      out.bytes[4 * i + j] = static_cast<std::uint8_t>(state_[i] >> (24 - 8 * j));
  return out;
}

Hash256 sha256(std::span<const std::uint8_t> data) { return Sha256().update(data).finalize(); }

Hash256 sha256(std::string_view text) { return Sha256().update(text).finalize(); }

Hash256 sha256d(std::span<const std::uint8_t> data) {
  Hash256 first = sha256(data);
  return sha256(std::span<const std::uint8_t>(first.bytes.data(), first.bytes.size()));
}

}  // namespace bng::crypto

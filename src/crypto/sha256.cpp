#include "crypto/sha256.hpp"

#include <cstring>

#include "util/require.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ROLESHARE_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace roleshare::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

std::array<std::uint32_t, 8> sha256_initial_state() {
  return {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

Sha256::Sha256() : state_(sha256_initial_state()), buffer_{} {}

void Sha256::process_block(const std::uint8_t* block) {
  sha256_compress(state_, block);
}

void sha256_compress_portable(std::array<std::uint32_t, 8>& state_,
                              const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

namespace {

#ifdef ROLESHARE_SHA256_X86

/// `Lanes` independent blocks through the x86 SHA extensions, one body
/// for the one-lane and two-lane forms. Compiled for the extension by
/// this attribute alone, so the rest of the build keeps its baseline ISA;
/// it only ever runs after cpu_has_sha_extensions() said yes.
/// sha256rnds2 does two rounds on the state packed as (ABEF, CDGH);
/// sha256msg1/msg2 extend the message schedule four words at a time.
/// One lane's rounds form a single dependency chain that leaves the SHA
/// unit idle for most of each instruction's latency; a second lane's
/// chain, interleaved group by group, fills those cycles.
template <std::size_t Lanes>
__attribute__((target("sha,sse4.1"), always_inline)) inline void
sha256_compress_x86_lanes(std::array<std::uint32_t, 8>* const* states,
                          const std::uint8_t* const* blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef[Lanes], cdgh[Lanes], abef_in[Lanes], cdgh_in[Lanes];
  // w[l][g % 4] holds lane l's message words 4g..4g+3 once group g is
  // reached.
  __m128i w[Lanes][4];
#pragma GCC unroll 2
  for (std::size_t l = 0; l < Lanes; ++l) {
    std::array<std::uint32_t, 8>& state = *states[l];
    // (a, b, c, d), (e, f, g, h) -> (ABEF, CDGH), high lane first.
    __m128i tmp =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    cdgh[l] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);          // CDAB
    cdgh[l] = _mm_shuffle_epi32(cdgh[l], 0x1B);  // EFGH
    abef[l] = _mm_alignr_epi8(tmp, cdgh[l], 8);
    cdgh[l] = _mm_blend_epi16(cdgh[l], tmp, 0xF0);
    abef_in[l] = abef[l];
    cdgh_in[l] = cdgh[l];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      w[l][i] = _mm_shuffle_epi8(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(blocks[l] + 16 * i)),
          byte_swap);
    }
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        &kRoundConstants[static_cast<std::size_t>(4 * g)]));
#pragma GCC unroll 2
    for (std::size_t l = 0; l < Lanes; ++l) {
      if (g >= 4) {
        // W[4g..4g+3] from W[4g-16..4g-1]: sigma0 terms, the W[t-7]
        // terms, then the sigma1 terms.
        const __m128i prev = w[l][(g + 3) & 3];
        const __m128i t7 = _mm_alignr_epi8(prev, w[l][(g + 2) & 3], 4);
        w[l][g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32(w[l][g & 3], w[l][(g + 1) & 3]), t7),
            prev);
      }
      const __m128i msg = _mm_add_epi32(w[l][g & 3], k);
      cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], msg);
      abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l],
                                      _mm_shuffle_epi32(msg, 0x0E));
    }
  }
#pragma GCC unroll 2
  for (std::size_t l = 0; l < Lanes; ++l) {
    std::array<std::uint32_t, 8>& state = *states[l];
    abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
    cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
    // (ABEF, CDGH) -> (a, b, c, d), (e, f, g, h).
    const __m128i tmp = _mm_shuffle_epi32(abef[l], 0x1B);  // FEBA
    cdgh[l] = _mm_shuffle_epi32(cdgh[l], 0xB1);            // DCHG
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                     _mm_blend_epi16(tmp, cdgh[l], 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                     _mm_alignr_epi8(cdgh[l], tmp, 8));
  }
}

__attribute__((target("sha,sse4.1"))) void sha256_compress_x86(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 8>* const states[1] = {&state};
  const std::uint8_t* const blocks[1] = {block};
  sha256_compress_x86_lanes<1>(states, blocks);
}

__attribute__((target("sha,sse4.1"))) void sha256_compress_pair_x86(
    std::array<std::uint32_t, 8>& state_a, const std::uint8_t* block_a,
    std::array<std::uint32_t, 8>& state_b, const std::uint8_t* block_b) {
  std::array<std::uint32_t, 8>* const states[2] = {&state_a, &state_b};
  const std::uint8_t* const blocks[2] = {block_a, block_b};
  sha256_compress_x86_lanes<2>(states, blocks);
}

/// CPUID leaf 7 EBX bit 29 (SHA), plus the SSSE3 and SSE4.1 shuffles
/// and blends the packing above uses (leaf 1 ECX bits 9 and 19).
bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

#endif  // ROLESHARE_SHA256_X86

void sha256_compress_pair_portable(std::array<std::uint32_t, 8>& state_a,
                                   const std::uint8_t* block_a,
                                   std::array<std::uint32_t, 8>& state_b,
                                   const std::uint8_t* block_b) {
  sha256_compress_portable(state_a, block_a);
  sha256_compress_portable(state_b, block_b);
}

struct CompressImpl {
  void (*compress)(std::array<std::uint32_t, 8>&, const std::uint8_t*);
  void (*compress_pair)(std::array<std::uint32_t, 8>&, const std::uint8_t*,
                        std::array<std::uint32_t, 8>&, const std::uint8_t*);
  std::string_view name;
};

/// Picks the compressions once per process, the single and the pair form
/// together; there is deliberately no build option, flag or environment
/// variable that overrides CPUID.
const CompressImpl& selected_compress() {
  static const CompressImpl impl = [] {
#ifdef ROLESHARE_SHA256_X86
    if (cpu_has_sha_extensions())
      return CompressImpl{&sha256_compress_x86, &sha256_compress_pair_x86,
                          "x86-sha-ni"};
#endif
    return CompressImpl{&sha256_compress_portable,
                        &sha256_compress_pair_portable, "portable"};
  }();
  return impl;
}

}  // namespace

void sha256_compress(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* block) {
  selected_compress().compress(state, block);
}

void sha256_compress_pair(std::array<std::uint32_t, 8>& state_a,
                          const std::uint8_t* block_a,
                          std::array<std::uint32_t, 8>& state_b,
                          const std::uint8_t* block_b) {
  selected_compress().compress_pair(state_a, block_a, state_b, block_b);
}

std::string_view sha256_implementation() { return selected_compress().name; }

void Sha256::update(std::span<const std::uint8_t> data) {
  RS_REQUIRE(!finalized_, "Sha256 reused after finalize");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::update(std::string_view text) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void Sha256::update_u64(std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  update(std::span<const std::uint8_t>(bytes, 8));
}

Digest Sha256::finalize() {
  RS_REQUIRE(!finalized_, "Sha256 reused after finalize");
  finalized_ = true;

  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));

  finalized_ = false;  // allow the two internal updates below
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(len_bytes, 8));
  finalized_ = true;
  RS_ENSURE(buffer_len_ == 0, "sha256 padding must close the block");
  return sha256_digest_of(state_);
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Digest sha256(std::string_view text) {
  Sha256 ctx;
  ctx.update(text);
  return ctx.finalize();
}

Sha256Fixed::Sha256Fixed(std::size_t message_len) : len_(message_len) {
  RS_REQUIRE(message_len <= 119,
             "Sha256Fixed message must fit two blocks (<= 119 bytes)");
  blocks_ = (message_len + 9 <= 64) ? 1 : 2;
  // Padding (FIPS 180-4 §5.1.1): 0x80, zeros, 64-bit big-endian bit
  // length. The buffer beyond the message is zero-initialized, so only
  // the marker and the length need writing.
  block_[len_] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(len_) * 8;
  const std::size_t end = blocks_ * 64;
  for (int i = 0; i < 8; ++i)
    block_[end - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
}

void Sha256Fixed::write(std::size_t offset, const std::uint8_t* bytes,
                        std::size_t count) {
  RS_REQUIRE(offset + count <= len_, "Sha256Fixed write out of range");
  // An empty write may come with a null pointer (an empty vector's
  // data()), which memcpy must never be passed.
  if (count != 0) std::memcpy(block_.data() + offset, bytes, count);
}

Digest Sha256Fixed::digest() const {
  std::array<std::uint32_t, 8> state = sha256_initial_state();
  sha256_compress(state, block_.data());
  if (blocks_ == 2) sha256_compress(state, block_.data() + 64);
  return sha256_digest_of(state);
}

}  // namespace roleshare::crypto

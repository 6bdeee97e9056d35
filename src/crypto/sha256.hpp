// SHA-256 implemented from scratch (FIPS 180-4). This is the only hash
// primitive in RoleShare: block hashing, simulated signatures, the VRF and
// sortition all build on it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

namespace roleshare::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context. Usage: update(...) any number of times,
/// then finalize() exactly once.
class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);
  /// Appends an integer in little-endian byte order (domain-separation aid).
  void update_u64(std::uint64_t value);

  /// Completes the hash. The context must not be reused afterwards.
  Digest finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

/// One-shot helpers.
Digest sha256(std::span<const std::uint8_t> data);
Digest sha256(std::string_view text);

/// Raw SHA-256 compression: folds one 64-byte block into `state`. The
/// streaming Sha256 context and the fixed-layout fast path below share
/// this single implementation, so their digests cannot diverge.
///
/// The implementation is chosen once per process from CPUID: the x86
/// SHA extensions where the CPU has them, otherwise the portable loop
/// below. Both produce identical states for every input.
void sha256_compress(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* block);

/// Two independent compressions in one call: folds `block_a` into
/// `state_a` and `block_b` into `state_b`, bit-identical to two
/// sha256_compress calls. On the x86 SHA extensions the two round chains
/// interleave, so a pair costs well under two single blocks; the
/// portable form is two portable calls. CPUID selects it together with
/// sha256_compress. The states must be distinct objects; the blocks may
/// be the same bytes.
void sha256_compress_pair(std::array<std::uint32_t, 8>& state_a,
                          const std::uint8_t* block_a,
                          std::array<std::uint32_t, 8>& state_b,
                          const std::uint8_t* block_b);

/// The portable FIPS 180-4 compression loop: the fallback on CPUs (and
/// targets) without SHA instructions, and the reference the hardware
/// path is tested against.
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* block);

/// Name of the compression sha256_compress runs in this process
/// ("x86-sha-ni" or "portable"), for stamping perf numbers.
std::string_view sha256_implementation();

/// The SHA-256 initialization vector (FIPS 180-4 §5.3.3).
std::array<std::uint32_t, 8> sha256_initial_state();

/// The digest of a final state: its words in big-endian byte order.
/// Inline, so batch loops that convert a state per message pay no call.
inline Digest sha256_digest_of(const std::array<std::uint32_t, 8>& state) {
  Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

/// A group of independent same-layout hashes run side by side: `Lanes`
/// states, one block each per step. Lanes is 1 or 2, the counts
/// sha256_compress and sha256_compress_pair take.
template <std::size_t Lanes>
using Sha256Lanes = std::array<std::array<std::uint32_t, 8>, Lanes>;

template <std::size_t Lanes>
void sha256_compress_lanes(
    Sha256Lanes<Lanes>& states,
    const std::array<const std::uint8_t*, Lanes>& blocks) {
  static_assert(Lanes == 1 || Lanes == 2, "one or two lanes");
  if constexpr (Lanes == 2)
    sha256_compress_pair(states[0], blocks[0], states[1], blocks[1]);
  else
    sha256_compress(states[0], blocks[0]);
}

/// Walks [begin, end) two indices at a time, calling body(lanes, i) with
/// `lanes` a std::integral_constant<std::size_t, 2>, and once with one
/// lane for a trailing odd index: the loop shape of every batch that
/// hashes through sha256_compress_lanes.
template <typename Body>
void for_each_lane_group(std::size_t begin, std::size_t end, Body&& body) {
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2)
    body(std::integral_constant<std::size_t, 2>{}, i);
  if (i < end) body(std::integral_constant<std::size_t, 1>{}, i);
}

/// Fixed-layout SHA-256 for hot loops that hash many messages of one
/// shape (sortition signatures, VRF outputs, vote coin hashes): the
/// message occupies a flat buffer whose padding is laid out once at
/// seal() time, so per-message work is exactly the 1–2 compression
/// calls — no streaming buffer management, no per-call padding.
///
/// Usage: write the constant bytes, seal(), then per message overwrite
/// the variable bytes through data() and call digest(). Copying a sealed
/// Sha256Fixed is cheap (160 bytes) — parallel chunk workers each take a
/// private copy of the shared template. Messages are limited to 119
/// bytes (two blocks minus the 9 mandatory padding bytes).
class Sha256Fixed {
 public:
  /// Lays out a message of exactly `message_len` bytes (<= 119).
  explicit Sha256Fixed(std::size_t message_len);

  /// The message bytes; valid offsets are [0, message_len()). The padded
  /// blocks follow each other, so data() + 64 is the second block.
  std::uint8_t* data() { return block_.data(); }
  const std::uint8_t* data() const { return block_.data(); }
  std::size_t message_len() const { return len_; }

  /// Overwrites `count` message bytes at `offset` (bounds-checked).
  void write(std::size_t offset, const std::uint8_t* bytes,
             std::size_t count);

  /// Hashes the current buffer contents. Bit-identical to streaming the
  /// same message through Sha256.
  Digest digest() const;

 private:
  std::array<std::uint8_t, 128> block_{};
  std::size_t len_ = 0;
  std::size_t blocks_ = 1;
};

}  // namespace roleshare::crypto

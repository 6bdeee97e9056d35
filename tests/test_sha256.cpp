#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/hex.hpp"
#include "util/rng.hpp"

namespace roleshare::crypto {
namespace {

std::string hex_of(const Digest& d) { return util::to_hex(d); }

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_of(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 ctx;
  ctx.update("hello ");
  ctx.update("wor");
  ctx.update("ld");
  EXPECT_EQ(ctx.finalize(), sha256("hello world"));
}

TEST(Sha256, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding boundary.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (const char c : msg)
      incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finalize(), sha256(msg)) << "len=" << len;
  }
}

TEST(Sha256, UpdateU64IsLittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::uint8_t bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 b;
  b.update(std::span<const std::uint8_t>(bytes, 8));
  EXPECT_EQ(a.finalize(), b.finalize());
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 ctx;
  ctx.update("x");
  (void)ctx.finalize();
  EXPECT_THROW(ctx.update("y"), std::invalid_argument);
  EXPECT_THROW(ctx.finalize(), std::invalid_argument);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Fixed, MatchesStreamingAtEveryLength) {
  // Every legal message length, covering the one-block/two-block padding
  // boundary (55/56 bytes) and the 119-byte maximum.
  for (std::size_t len = 0; len <= 119; ++len) {
    Sha256Fixed fixed(len);
    std::vector<std::uint8_t> message(len);
    for (std::size_t i = 0; i < len; ++i)
      message[i] = static_cast<std::uint8_t>(0x40 + i);
    fixed.write(0, message.data(), message.size());
    EXPECT_EQ(fixed.digest(), sha256(message)) << "len=" << len;
  }
}

TEST(Sha256Fixed, RewritingSlotBytesRehashesCorrectly) {
  Sha256Fixed fixed(64);
  std::vector<std::uint8_t> message(64, 0xaa);
  fixed.write(0, message.data(), message.size());
  EXPECT_EQ(fixed.digest(), sha256(message));
  // Overwrite a middle window and re-digest: the template is reusable.
  for (std::size_t i = 16; i < 48; ++i) message[i] = 0x55;
  fixed.write(16, message.data() + 16, 32);
  EXPECT_EQ(fixed.digest(), sha256(message));
}

TEST(Sha256Fixed, RejectsOversizedMessageAndOutOfBoundsWrite) {
  EXPECT_THROW(Sha256Fixed(120), std::invalid_argument);
  Sha256Fixed fixed(16);
  const std::uint8_t byte = 0;
  EXPECT_THROW(fixed.write(16, &byte, 1), std::invalid_argument);
}

// -- Portable vs selected compression ---------------------------------------
//
// sha256_compress runs whichever implementation CPUID selected; the
// portable loop is the reference. The vectors run through both paths,
// so the portable one stays checked on machines that select hardware;
// the comparisons after them pin the selected path to the reference.

using CompressFn = void (*)(std::array<std::uint32_t, 8>&,
                            const std::uint8_t*);

/// SHA-256 of `message` with FIPS 180-4 padding laid out here and every
/// block folded by `compress`, so the digest depends on nothing but the
/// compression under test.
Digest digest_with(CompressFn compress, std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::array<std::uint32_t, 8> state = sha256_initial_state();
  for (std::size_t offset = 0; offset < padded.size(); offset += 64)
    compress(state, padded.data() + offset);
  Digest digest{};
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return digest;
}

Digest digest_with(CompressFn compress, std::string_view text) {
  return digest_with(
      compress, std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size()));
}

bool hardware_selected() { return sha256_implementation() != "portable"; }

constexpr const char* kNoHardware =
    "this CPU has no x86 SHA extensions, so sha256_compress runs the "
    "portable path and there is no hardware path to compare";

void expect_fips_vectors(CompressFn compress) {
  EXPECT_EQ(hex_of(digest_with(compress, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_of(digest_with(compress, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_of(digest_with(
                compress,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_of(digest_with(compress, std::string(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Compress, ImplementationNameIsKnown) {
  const std::string_view name = sha256_implementation();
  EXPECT_TRUE(name == "x86-sha-ni" || name == "portable") << name;
#if !defined(__x86_64__)
  EXPECT_EQ(name, "portable");
#endif
}

TEST(Sha256Compress, FipsVectorsOnBothPaths) {
  {
    SCOPED_TRACE("portable");
    expect_fips_vectors(&sha256_compress_portable);
  }
  SCOPED_TRACE(sha256_implementation());
  expect_fips_vectors(&sha256_compress);
}

TEST(Sha256Compress, FixedLayoutMatchesPortableAtEveryLength) {
  if (!hardware_selected()) GTEST_SKIP() << kNoHardware;
  for (std::size_t len = 0; len <= 119; ++len) {
    std::vector<std::uint8_t> message(len);
    for (std::size_t i = 0; i < len; ++i)
      message[i] = static_cast<std::uint8_t>(0x9d * i + len);
    Sha256Fixed fixed(len);
    fixed.write(0, message.data(), message.size());
    EXPECT_EQ(fixed.digest(), digest_with(&sha256_compress_portable, message))
        << "len=" << len;
  }
}

TEST(Sha256Compress, StreamingSplitsMatchPortable) {
  if (!hardware_selected()) GTEST_SKIP() << kNoHardware;
  std::vector<std::uint8_t> message(200);
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<std::uint8_t>(0x35 * i + 7);
  const Digest expected = digest_with(&sha256_compress_portable, message);
  const std::span<const std::uint8_t> bytes(message);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 ctx;
    ctx.update(bytes.first(split));
    ctx.update(bytes.subspan(split));
    EXPECT_EQ(ctx.finalize(), expected) << "split=" << split;
  }
}

std::array<std::uint32_t, 8> random_state(util::Rng& rng) {
  std::array<std::uint32_t, 8> state{};
  for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng());
  return state;
}

std::array<std::uint8_t, 64> random_block(util::Rng& rng) {
  std::array<std::uint8_t, 64> block{};
  for (std::size_t i = 0; i < block.size(); i += 8) {
    const std::uint64_t bits = rng();
    for (std::size_t b = 0; b < 8; ++b)
      block[i + b] = static_cast<std::uint8_t>(bits >> (8 * b));
  }
  return block;
}

TEST(Sha256Compress, RandomStatesAndBlocksMatchPortable) {
  if (!hardware_selected()) GTEST_SKIP() << kNoHardware;
  util::Rng rng(0x5a256);
  constexpr int kPairs = 100'000;
  int mismatches = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::array<std::uint32_t, 8> state = random_state(rng);
    const std::array<std::uint8_t, 64> block = random_block(rng);
    std::array<std::uint32_t, 8> selected = state;
    std::array<std::uint32_t, 8> portable = state;
    sha256_compress(selected, block.data());
    sha256_compress_portable(portable, block.data());
    if (selected != portable && ++mismatches <= 3)
      ADD_FAILURE() << "pair " << pair << " compresses differently";
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Sha256Compress, PairMatchesPortable) {
  // Two lanes at once against two portable calls; every eighth pair
  // feeds both lanes the same block, as a sortition batch does.
  if (!hardware_selected()) GTEST_SKIP() << kNoHardware;
  util::Rng rng(0x9a125);
  constexpr int kPairs = 100'000;
  int mismatches = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    std::array<std::uint32_t, 8> a = random_state(rng);
    std::array<std::uint32_t, 8> b = random_state(rng);
    const std::array<std::uint8_t, 64> block_a = random_block(rng);
    const std::array<std::uint8_t, 64> block_b =
        pair % 8 == 0 ? block_a : random_block(rng);
    std::array<std::uint32_t, 8> portable_a = a;
    std::array<std::uint32_t, 8> portable_b = b;
    sha256_compress_pair(a, block_a.data(), b, block_b.data());
    sha256_compress_portable(portable_a, block_a.data());
    sha256_compress_portable(portable_b, block_b.data());
    if ((a != portable_a || b != portable_b) && ++mismatches <= 3)
      ADD_FAILURE() << "pair " << pair << " compresses differently";
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace roleshare::crypto

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/keypair.hpp"
#include "crypto/vrf.hpp"
#include "util/hex.hpp"

namespace roleshare::crypto {
namespace {

TEST(Hash256, ZeroHash) {
  EXPECT_TRUE(Hash256::zero().is_zero());
  EXPECT_FALSE(HashBuilder("t").add_u64(1).build().is_zero());
}

TEST(Hash256, RatioInUnitInterval) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Hash256 h = HashBuilder("ratio").add_u64(i).build();
    EXPECT_GE(h.ratio(), 0.0);
    EXPECT_LT(h.ratio(), 1.0);
  }
}

TEST(Hash256, RatioRoughlyUniform) {
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += HashBuilder("u").add_u64(i).build().ratio();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Hash256, HexRoundTrip) {
  const Hash256 h = HashBuilder("hex").add_u64(99).build();
  EXPECT_EQ(h.to_hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), h.to_hex().substr(0, 8));
  const auto bytes = util::from_hex(h.to_hex());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), h.bytes().begin()));
}

TEST(Hash256, OrderingIsTotal) {
  const Hash256 a = HashBuilder("o").add_u64(1).build();
  const Hash256 b = HashBuilder("o").add_u64(2).build();
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

TEST(HashBuilder, DomainSeparation) {
  const Hash256 a = HashBuilder("domain-a").add_u64(7).build();
  const Hash256 b = HashBuilder("domain-b").add_u64(7).build();
  EXPECT_NE(a, b);
}

TEST(HashBuilder, LengthPrefixPreventsAmbiguity) {
  // ("ab", "c") must differ from ("a", "bc").
  const Hash256 a = HashBuilder("t").add("ab").add("c").build();
  const Hash256 b = HashBuilder("t").add("a").add("bc").build();
  EXPECT_NE(a, b);
}

TEST(HashBuilder, Deterministic) {
  const Hash256 a = HashBuilder("t").add_u64(1).add("x").build();
  const Hash256 b = HashBuilder("t").add_u64(1).add("x").build();
  EXPECT_EQ(a, b);
}

TEST(FixedHasher, SlotThenConstantMatchesHashBuilder) {
  // The VRF sign layout: H(tag || slot || constant-msg).
  const Hash256 msg = HashBuilder("msg").build();
  FixedHasher layout("roleshare.sig");
  const std::size_t slot = layout.add_hash_slot();
  layout.add(msg);
  Sha256Fixed fixed = layout.build_template();
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Hash256 probe = HashBuilder("probe").add_u64(i).build();
    write_hash_slot(fixed, slot, probe);
    EXPECT_EQ(Hash256(fixed.digest()),
              HashBuilder("roleshare.sig").add(probe).add(msg).build());
  }
}

TEST(FixedHasher, ConstantsAndSlotInterleaved) {
  // Constant u64 and hash parts around the variable slot, in layout
  // order — matches HashBuilder streaming the same sequence.
  const Hash256 fixed_part = HashBuilder("const").build();
  FixedHasher layout("tag");
  layout.add_u64(99);
  const std::size_t slot = layout.add_hash_slot();
  layout.add(fixed_part);
  Sha256Fixed fixed = layout.build_template();
  const Hash256 probe = HashBuilder("p").build();
  write_hash_slot(fixed, slot, probe);
  EXPECT_EQ(
      Hash256(fixed.digest()),
      HashBuilder("tag").add_u64(99).add(probe).add(fixed_part).build());
}

TEST(FixedHasher, UnwrittenSlotHashesAsZeroes) {
  // A slot left unwritten contributes 32 zero bytes — the same message
  // HashBuilder produces for Hash256::zero().
  FixedHasher layout("z");
  (void)layout.add_hash_slot();
  const Sha256Fixed fixed = layout.build_template();
  EXPECT_EQ(Hash256(fixed.digest()),
            HashBuilder("z").add(Hash256::zero()).build());
}

TEST(KeyPair, DerivationIsDeterministic) {
  const KeyPair a = KeyPair::derive(42, 7);
  const KeyPair b = KeyPair::derive(42, 7);
  EXPECT_EQ(a.public_key(), b.public_key());
}

TEST(KeyPair, DistinctNodesDistinctKeys) {
  EXPECT_NE(KeyPair::derive(42, 1).public_key(),
            KeyPair::derive(42, 2).public_key());
  EXPECT_NE(KeyPair::derive(1, 7).public_key(),
            KeyPair::derive(2, 7).public_key());
}

TEST(KeyPair, DerivedKeysArePinned) {
  // SHA-256 over the first 10,001 public keys at seed 4000 (the first
  // long-horizon panel's seed), recorded with per-key derive() calls
  // before derive_all existed. Both forms must still produce it.
  constexpr std::size_t kKeys = 10'001;
  constexpr std::string_view kPinned =
      "57f758b2c434ffddc3fed5c4175f42ce6d487a0ce5f986ed77d1d9a9649af9b0";
  Sha256 batch;
  for (const KeyPair& key : KeyPair::derive_all(4000, kKeys))
    batch.update(key.public_key().value.span());
  EXPECT_EQ(util::to_hex(batch.finalize()), kPinned);
  Sha256 single;
  for (std::uint64_t v = 0; v < kKeys; ++v)
    single.update(KeyPair::derive(4000, v).public_key().value.span());
  EXPECT_EQ(util::to_hex(single.finalize()), kPinned);
}

TEST(KeyPair, DeriveAllMatchesDerive) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{42}, ~std::uint64_t{0}}) {
    for (const std::size_t count : {0, 1, 2, 3, 1001}) {
      const std::vector<KeyPair> keys = KeyPair::derive_all(seed, count);
      ASSERT_EQ(keys.size(), count);
      for (std::size_t v = 0; v < count; ++v)
        ASSERT_EQ(keys[v].public_key(), KeyPair::derive(seed, v).public_key())
            << "seed=" << seed << " count=" << count << " node " << v;
    }
  }
}

TEST(Signature, SignVerifyRoundTrip) {
  const KeyPair key = KeyPair::derive(1, 1);
  const Hash256 msg = HashBuilder("msg").add("hello").build();
  const Signature sig = key.sign(msg);
  EXPECT_TRUE(verify(key.public_key(), msg, sig));
}

TEST(Signature, WrongMessageFails) {
  const KeyPair key = KeyPair::derive(1, 1);
  const Hash256 msg = HashBuilder("msg").add("hello").build();
  const Hash256 other = HashBuilder("msg").add("world").build();
  EXPECT_FALSE(verify(key.public_key(), other, key.sign(msg)));
}

TEST(Signature, WrongKeyFails) {
  const KeyPair a = KeyPair::derive(1, 1);
  const KeyPair b = KeyPair::derive(1, 2);
  const Hash256 msg = HashBuilder("msg").add("hello").build();
  EXPECT_FALSE(verify(b.public_key(), msg, a.sign(msg)));
}

TEST(Vrf, EvaluateVerifyRoundTrip) {
  const KeyPair key = KeyPair::derive(5, 3);
  const VrfInput input{10, 2, HashBuilder("seed").add_u64(9).build()};
  const VrfOutput out = vrf_evaluate(key, input);
  EXPECT_TRUE(vrf_verify(key.public_key(), input, out));
}

TEST(Vrf, VerifyRejectsWrongKey) {
  const KeyPair a = KeyPair::derive(5, 3);
  const KeyPair b = KeyPair::derive(5, 4);
  const VrfInput input{10, 2, HashBuilder("seed").add_u64(9).build()};
  EXPECT_FALSE(vrf_verify(b.public_key(), input, vrf_evaluate(a, input)));
}

TEST(Vrf, VerifyRejectsTamperedOutput) {
  const KeyPair key = KeyPair::derive(5, 3);
  const VrfInput input{10, 2, HashBuilder("seed").add_u64(9).build()};
  VrfOutput out = vrf_evaluate(key, input);
  out.output = HashBuilder("tamper").build();
  EXPECT_FALSE(vrf_verify(key.public_key(), input, out));
}

TEST(Vrf, DifferentInputsDifferentOutputs) {
  const KeyPair key = KeyPair::derive(5, 3);
  const Hash256 seed = HashBuilder("seed").add_u64(9).build();
  const VrfOutput a = vrf_evaluate(key, VrfInput{10, 1, seed});
  const VrfOutput b = vrf_evaluate(key, VrfInput{10, 2, seed});
  const VrfOutput c = vrf_evaluate(key, VrfInput{11, 1, seed});
  EXPECT_NE(a.output, b.output);
  EXPECT_NE(a.output, c.output);
}

TEST(Vrf, RatioIsDeterministicPerKeyAndInput) {
  const KeyPair key = KeyPair::derive(5, 3);
  const VrfInput input{1, 1, Hash256::zero()};
  EXPECT_DOUBLE_EQ(vrf_evaluate(key, input).ratio(),
                   vrf_evaluate(key, input).ratio());
}

}  // namespace
}  // namespace roleshare::crypto

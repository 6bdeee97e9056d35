#include "crypto/keypair.hpp"

#include "util/require.hpp"

namespace roleshare::crypto {

namespace {

// The "signature" is a hash keyed by the *public* key. Anyone could forge
// it, which is acceptable for simulation (no forging adversaries) and makes
// verification possible without the secret.
Signature compute_signature(const PublicKey& pk, const Hash256& message) {
  return Signature{
      HashBuilder("roleshare.sig").add(pk.value).add(message).build()};
}

}  // namespace

KeyPair KeyPair::derive(std::uint64_t seed, std::uint64_t node_id) {
  const Hash256 secret =
      HashBuilder("roleshare.sk").add_u64(seed).add_u64(node_id).build();
  return KeyPair(PublicKey{HashBuilder("roleshare.pk").add(secret).build()});
}

std::vector<KeyPair> KeyPair::derive_all(std::uint64_t seed,
                                         std::size_t count) {
  // sk = H("roleshare.sk", seed, v) is 52 bytes, one block, with v in its
  // last 8 bytes. pk = H("roleshare.pk", sk) is 60 bytes: block 1 holds
  // the whole message and block 2 only padding and the length, so three
  // compressions per key.
  const Sha256Fixed sk_template =
      FixedHasher("roleshare.sk").add_u64(seed).add_u64(0).build_template();
  const std::size_t id_offset = sk_template.message_len() - 8;
  FixedHasher pk_layout("roleshare.pk");
  const std::size_t sk_slot = pk_layout.add_hash_slot();
  const Sha256Fixed pk_template = pk_layout.build_template();
  RS_ENSURE(sk_template.message_len() + 9 <= 64 &&
                pk_template.message_len() + 9 > 64,
            "sk hash is one block, pk hash two");

  std::vector<KeyPair> keys;
  keys.reserve(count);
  std::array<Sha256Fixed, 2> sk_fixed = {sk_template, sk_template};
  std::array<Sha256Fixed, 2> pk_fixed = {pk_template, pk_template};
  for_each_lane_group(0, count, [&](auto lanes, std::size_t v) {
    constexpr std::size_t L = decltype(lanes)::value;
    Sha256Lanes<L> states;
    std::array<const std::uint8_t*, L> blocks;
    for (std::size_t l = 0; l < L; ++l) {
      std::uint8_t id[8];
      for (std::size_t b = 0; b < 8; ++b)
        id[b] = static_cast<std::uint8_t>((v + l) >> (8 * b));
      sk_fixed[l].write(id_offset, id, 8);
      states[l] = sha256_initial_state();
      blocks[l] = sk_fixed[l].data();
    }
    sha256_compress_lanes<L>(states, blocks);
    for (std::size_t l = 0; l < L; ++l) {
      write_hash_slot(pk_fixed[l], sk_slot, sha256_digest_of(states[l]));
      states[l] = sha256_initial_state();
      blocks[l] = pk_fixed[l].data();
    }
    sha256_compress_lanes<L>(states, blocks);
    for (std::size_t l = 0; l < L; ++l) blocks[l] += 64;
    sha256_compress_lanes<L>(states, blocks);
    for (std::size_t l = 0; l < L; ++l)
      keys.push_back(
          KeyPair(PublicKey{Hash256(sha256_digest_of(states[l]))}));
  });
  return keys;
}

Signature KeyPair::sign(const Hash256& message) const {
  return compute_signature(public_key_, message);
}

bool verify(const PublicKey& pk, const Hash256& message,
            const Signature& sig) {
  return compute_signature(pk, message) == sig;
}

}  // namespace roleshare::crypto

#include "crypto/keypair.hpp"

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

Signature KeyPair::sign(const Hash256& message) const {
  return compute_signature(public_key_, message);
}

bool verify(const PublicKey& pk, const Hash256& message,
            const Signature& sig) {
  return compute_signature(pk, message) == sig;
}

}  // namespace roleshare::crypto

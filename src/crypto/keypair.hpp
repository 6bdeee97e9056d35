// Simulated signature scheme.
//
// SUBSTITUTION (see DESIGN.md): real Algorand uses Ed25519. For a
// discrete-event simulation with honest-but-selfish (never forging) players,
// we replace it with a keyed-hash scheme that preserves the properties the
// protocol logic relies on — determinism, per-key uniqueness, verifiability
// by recomputation — while being orders of magnitude cheaper. It is NOT
// unforgeable and must never be used outside simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/hash.hpp"

namespace roleshare::crypto {

/// Public key: an opaque 32-byte value derived from the secret key.
struct PublicKey {
  Hash256 value;
  auto operator<=>(const PublicKey&) const = default;
  std::string short_hex() const { return value.short_hex(); }
};

/// Signature over a message hash.
struct Signature {
  Hash256 value;
  auto operator<=>(const Signature&) const = default;
};

/// A key pair deterministically derived from (experiment seed, node id).
/// Only the public key is kept: the simulated scheme signs under the
/// public key, so nothing reads the secret after derive() has hashed it.
class KeyPair {
 public:
  /// Derives a key pair for `node_id` under `seed`.
  static KeyPair derive(std::uint64_t seed, std::uint64_t node_id);

  /// The key pairs of nodes 0 .. count-1 under `seed`, bit-identical to
  /// `count` derive() calls: the same two hashes through fixed layouts,
  /// two nodes at a time (sha256_compress_pair).
  static std::vector<KeyPair> derive_all(std::uint64_t seed,
                                         std::size_t count);

  const PublicKey& public_key() const { return public_key_; }

  /// Signs a message hash. Deterministic.
  Signature sign(const Hash256& message) const;

 private:
  explicit KeyPair(PublicKey pub) : public_key_(pub) {}

  PublicKey public_key_;
};

/// Verifies a signature. In this simulated scheme the verifier recomputes
/// the keyed hash from the public key (see header comment for the security
/// caveat); the call signature mirrors a real scheme's so consensus code is
/// substitution-agnostic.
bool verify(const PublicKey& pk, const Hash256& message, const Signature& sig);

}  // namespace roleshare::crypto

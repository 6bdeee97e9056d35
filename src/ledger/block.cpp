#include "ledger/block.hpp"

namespace roleshare::ledger {

Block Block::make(Round round, const crypto::Hash256& prev_hash,
                  const crypto::Hash256& seed,
                  const crypto::PublicKey& proposer) {
  Block b;
  b.round_ = round;
  b.prev_hash_ = prev_hash;
  b.seed_ = seed;
  b.proposer_ = proposer;
  b.empty_ = false;
  return b;
}

Block Block::empty(Round round, const crypto::Hash256& prev_hash,
                   const crypto::Hash256& seed) {
  Block b;
  b.round_ = round;
  b.prev_hash_ = prev_hash;
  b.seed_ = seed;
  b.empty_ = true;
  return b;
}

crypto::Hash256 Block::hash() const {
  crypto::HashBuilder h("roleshare.block");
  h.add_u64(round_).add(prev_hash_).add(seed_).add_u64(empty_ ? 1 : 0);
  if (!empty_) {
    // The transaction count blocks once carried, always 0. Dropping it
    // would change every block hash, and with it every seed and chain tip.
    h.add(proposer_.value).add_u64(0);
  }
  return h.build();
}

}  // namespace roleshare::ledger

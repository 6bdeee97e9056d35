// Algorand block: a proposer's block (or the empty block), the hash of
// the block it extends, and the next-round random seed Q_r (§II-B2). The
// simulation creates no transactions, so a block carries none.
#pragma once

#include "crypto/hash.hpp"
#include "crypto/keypair.hpp"
#include "ledger/types.hpp"

namespace roleshare::ledger {

class Block {
 public:
  /// Default: a round-0 empty block placeholder (aggregate members keep it
  /// regular); real blocks come from make()/empty().
  Block() = default;

  /// Builds a proposer's block for `round` extending `prev_hash`.
  static Block make(Round round, const crypto::Hash256& prev_hash,
                    const crypto::Hash256& seed,
                    const crypto::PublicKey& proposer);

  /// The default empty block for a round — what BA* falls back to when no
  /// proposal gathers enough votes. Deterministic: every node derives the
  /// identical empty block for (round, prev_hash).
  static Block empty(Round round, const crypto::Hash256& prev_hash,
                     const crypto::Hash256& seed);

  Round round() const { return round_; }
  const crypto::Hash256& prev_hash() const { return prev_hash_; }
  const crypto::Hash256& seed() const { return seed_; }
  const crypto::PublicKey& proposer() const { return proposer_; }
  bool is_empty() const { return empty_; }

  /// Block hash over the full content.
  crypto::Hash256 hash() const;

 private:
  Round round_ = 0;
  crypto::Hash256 prev_hash_;
  crypto::Hash256 seed_;
  crypto::PublicKey proposer_;  // zero key for the empty block
  bool empty_ = true;
};

}  // namespace roleshare::ledger

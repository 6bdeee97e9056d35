// Account and stake bookkeeping.
//
// One account per network node. Balances are µAlgos; the stake used for
// sortition and reward proportionality is the whole-Algo part of the
// balance, matching the paper's whole-Algo stake vectors.
#pragma once

#include <optional>
#include <vector>

#include "crypto/keypair.hpp"
#include "ledger/transaction.hpp"
#include "ledger/types.hpp"

namespace roleshare::ledger {

struct Account {
  NodeId id = 0;
  crypto::PublicKey key;
  MicroAlgos balance = 0;

  /// Stake in whole Algos (floor of balance).
  std::int64_t stake_algos() const { return balance / kMicroPerAlgo; }
};

class AccountTable {
 public:
  /// Registers an account with the given starting balance. The public key
  /// must be unique. Returns the assigned node id (dense, starting at 0).
  NodeId add_account(const crypto::PublicKey& key, MicroAlgos balance);

  std::size_t size() const { return accounts_.size(); }
  const Account& account(NodeId id) const;
  std::optional<NodeId> find(const crypto::PublicKey& key) const;

  MicroAlgos balance(NodeId id) const { return account(id).balance; }
  std::int64_t stake(NodeId id) const { return account(id).stake_algos(); }

  /// Sum of all whole-Algo stakes (S_N of the paper).
  std::int64_t total_stake() const;

  /// Snapshot of all stakes, indexed by node id.
  std::vector<std::int64_t> stakes() const;

  /// Same snapshot written into a reused vector (capacity kept).
  void stakes_into(std::vector<std::int64_t>& out) const;

  /// Credits a reward (µAlgos >= 0).
  void credit(NodeId id, MicroAlgos amount);

  /// Validates a transaction against current balances: signature, known
  /// sender/receiver, and sender balance >= amount + fee.
  bool validate(const Transaction& txn) const;

  /// Applies a validated transaction; returns false (no state change) if
  /// validation fails. The fee is *removed* from circulation here and must
  /// be forwarded to the fee pool by the caller.
  bool apply(const Transaction& txn);

 private:
  /// The slot holding `key`, or the empty slot where its probe ends.
  std::size_t probe(const crypto::Hash256& key) const;
  void rehash(std::size_t slot_count);

  std::vector<Account> accounts_;
  // Key index: open addressing with linear probing from the key's 64-bit
  // prefix. Each slot holds a node id or a sentinel for empty; the slot
  // count is a power of two and at most half the slots are used.
  std::vector<NodeId> slots_;
};

}  // namespace roleshare::ledger

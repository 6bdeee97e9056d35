// Account and stake bookkeeping.
//
// One account per network node, indexed by node id. Balances are µAlgos;
// the stake used for sortition and reward proportionality is the
// whole-Algo part of the balance, matching the paper's whole-Algo stake
// vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger/types.hpp"

namespace roleshare::ledger {

class AccountTable {
 public:
  /// Registers an account with the given starting balance. Returns the
  /// assigned node id (dense, starting at 0).
  NodeId add_account(MicroAlgos balance);

  std::size_t size() const { return balances_.size(); }

  MicroAlgos balance(NodeId id) const;
  /// Stake in whole Algos (floor of the balance).
  std::int64_t stake(NodeId id) const { return balance(id) / kMicroPerAlgo; }

  /// Sum of all whole-Algo stakes (S_N of the paper).
  std::int64_t total_stake() const;

  /// Snapshot of all stakes, indexed by node id.
  std::vector<std::int64_t> stakes() const;

  /// Same snapshot written into a reused vector (capacity kept).
  void stakes_into(std::vector<std::int64_t>& out) const;

  /// Credits a reward (µAlgos >= 0).
  void credit(NodeId id, MicroAlgos amount);

 private:
  std::vector<MicroAlgos> balances_;
};

}  // namespace roleshare::ledger

// Per-round snapshot of who holds which role and which stake — the input
// the reward schemes, the game and the Theorem-3 bounds operate on (the
// paper's L, M, K sets with S_L, S_M, S_K and the per-role minimum
// stakes).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "consensus/roles.hpp"
#include "ledger/types.hpp"

namespace roleshare::econ {

class RoleSnapshot {
 public:
  /// `roles[v]` and `stakes[v]` (whole Algos) for every online node v.
  RoleSnapshot(std::vector<consensus::Role> roles,
               std::vector<std::int64_t> stakes);

  /// Rebuilds this snapshot in place by *swapping* in the caller's
  /// role/stake vectors and recomputing the cached aggregates. The caller
  /// gets the snapshot's previous vectors back (capacity intact) to refill
  /// next round — the reuse handshake that lets a recycled RoundResult
  /// rebuild its snapshots without heap traffic.
  void reset(std::vector<consensus::Role>& roles,
             std::vector<std::int64_t>& stakes);

  std::size_t node_count() const { return roles_.size(); }
  consensus::Role role(ledger::NodeId v) const { return roles_.at(v); }
  std::int64_t stake(ledger::NodeId v) const { return stakes_.at(v); }
  const std::vector<consensus::Role>& roles() const { return roles_; }
  const std::vector<std::int64_t>& stakes() const { return stakes_; }

  std::size_t count(consensus::Role r) const;

  /// Total stake per role: S_L, S_M, S_K; and S_N = S_L + S_M + S_K.
  std::int64_t stake_of(consensus::Role r) const;
  std::int64_t total_stake() const;

  /// Minimum stake within a role (s*_l, s*_m, s*_k). Returns 0 when the
  /// role is empty.
  std::int64_t min_stake_of(consensus::Role r) const;

 private:
  void recompute_aggregates();

  std::vector<consensus::Role> roles_;
  std::vector<std::int64_t> stakes_;
  // Cached aggregates, computed once at construction (or reset()).
  std::array<std::int64_t, 3> stake_sum_{};
  std::array<std::int64_t, 3> stake_min_{};
  std::array<std::size_t, 3> counts_{};
};

}  // namespace roleshare::econ

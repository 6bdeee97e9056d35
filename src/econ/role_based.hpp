// The paper's role-based reward sharing mechanism (Fig 4, Eq 5) with the
// budget of Algorithm 1.
//
// B_i is split αB_i : βB_i : γB_i across leaders, committee members and the
// remaining online nodes, each sub-pot shared stake-proportionally inside
// its role:  r_L = αB_i/S_L, r_M = βB_i/S_M, r_K = γB_i/S_K.
//
// Every round the scheme re-runs the optimizer on the live snapshot,
// choosing both the split and the minimal incentive-compatible B_i. Fig 5
// evaluates fixed splits through compute_bi_bounds directly, and the
// long-horizon run pays its fixed split through distribute_touched.
#pragma once

#include "econ/optimizer.hpp"
#include "econ/reward_scheme.hpp"
#include "econ/role_snapshot.hpp"

namespace roleshare::econ {

class RoleBasedScheme {
 public:
  explicit RoleBasedScheme(CostModel costs);

  /// B_i for `round`, µAlgos: the Algorithm-1 minimum for the round's
  /// snapshot, 0 when the round is infeasible. The caller clips it
  /// against the pool.
  ledger::MicroAlgos required_budget(ledger::Round round,
                                     const RoleSnapshot& snapshot);

  /// Splits `budget` µAlgos across the role pots (Eq 5) with the split
  /// of the last required_budget call.
  Payouts distribute(ledger::Round round, const RoleSnapshot& snapshot,
                     ledger::MicroAlgos budget) const;

  /// The split chosen by the most recent required_budget call.
  const RewardSplit& last_split() const { return last_split_; }
  /// Whether the last optimization was feasible.
  bool last_feasible() const { return last_feasible_; }

 private:
  CostModel costs_;
  RewardOptimizer optimizer_;
  RewardSplit last_split_{0.01, 0.01};
  bool last_feasible_ = false;
};

}  // namespace roleshare::econ

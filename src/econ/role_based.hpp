// The paper's role-based reward sharing mechanism (Fig 4, Eq 5).
//
// B_i is split αB_i : βB_i : γB_i across leaders, committee members and the
// remaining online nodes, each sub-pot shared stake-proportionally inside
// its role:  r_L = αB_i/S_L, r_M = βB_i/S_M, r_K = γB_i/S_K.
//
// In adaptive mode (the full Algorithm 1 deployment) the scheme re-runs the
// optimizer every round on the live snapshot, choosing both the split and
// the minimal incentive-compatible B_i. In fixed mode the designer pins
// (α, β) and a budget policy, which is what the Fig-5 numerical analysis
// examines.
#pragma once

#include <optional>

#include "econ/optimizer.hpp"
#include "econ/reward_scheme.hpp"
#include "econ/role_snapshot.hpp"

namespace roleshare::econ {

class RoleBasedScheme {
 public:
  /// Adaptive Algorithm-1 mode: per-round (α, β, B_i) from the optimizer.
  /// `min_other_stake`, when set, excludes Other nodes below the threshold
  /// from the reward set (Fig-7(c)'s U_w filter) before optimizing.
  RoleBasedScheme(CostModel costs, OptimizerConfig optimizer_config = {},
                  std::optional<std::int64_t> min_other_stake = std::nullopt);

  /// Fixed-split mode: the designer supplies (α, β); B_i is still the
  /// Theorem-3 minimum for that split each round.
  RoleBasedScheme(CostModel costs, RewardSplit fixed_split,
                  std::optional<std::int64_t> min_other_stake = std::nullopt);

  /// B_i for `round`, µAlgos: the Theorem-3 minimum for the round's
  /// split, 0 when the round is infeasible. The caller clips it against
  /// the pool.
  ledger::MicroAlgos required_budget(ledger::Round round,
                                     const RoleSnapshot& snapshot);

  /// Splits `budget` µAlgos across the role pots (Eq 5).
  Payouts distribute(ledger::Round round, const RoleSnapshot& snapshot,
                     ledger::MicroAlgos budget);

  /// The split used by the most recent required_budget/distribute call.
  const RewardSplit& last_split() const { return last_split_; }
  /// Whether the last optimization was feasible.
  bool last_feasible() const { return last_feasible_; }

 private:
  CostModel costs_;
  RewardOptimizer optimizer_;
  std::optional<RewardSplit> fixed_split_;
  std::optional<std::int64_t> min_other_stake_;
  RewardSplit last_split_{0.01, 0.01};
  bool last_feasible_ = false;
};

}  // namespace roleshare::econ

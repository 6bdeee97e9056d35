#include "econ/role_based.hpp"

#include <cmath>
#include <optional>

#include "util/require.hpp"

namespace roleshare::econ {

RoleBasedScheme::RoleBasedScheme(CostModel costs,
                                 OptimizerConfig optimizer_config,
                                 std::optional<std::int64_t> min_other_stake)
    : costs_(costs),
      optimizer_(optimizer_config),
      min_other_stake_(min_other_stake) {}

RoleBasedScheme::RoleBasedScheme(CostModel costs, RewardSplit fixed_split,
                                 std::optional<std::int64_t> min_other_stake)
    : costs_(costs),
      optimizer_(),
      fixed_split_(fixed_split),
      min_other_stake_(min_other_stake),
      last_split_(fixed_split) {}

ledger::MicroAlgos RoleBasedScheme::required_budget(
    ledger::Round, const RoleSnapshot& snapshot) {
  // Only the Others filter needs a copy; without it the caller's snapshot
  // is read in place.
  std::optional<RoleSnapshot> filtered;
  if (min_other_stake_) filtered = snapshot.filtered_others(*min_other_stake_);
  const RoleSnapshot& effective = filtered ? *filtered : snapshot;
  // Degenerate round: a role is empty (sortition elected nobody) or holds
  // a zero-stake member, leaving the Theorem-3 bounds undefined (min
  // stake s*_x enters as a divisor — a node with nothing at stake has no
  // deviation cost to bound). Pay nothing rather than divide by zero;
  // min_stake_of() returns 0 for empty roles, so one check covers both.
  if (effective.min_stake_of(consensus::Role::Leader) <= 0 ||
      effective.min_stake_of(consensus::Role::Committee) <= 0 ||
      effective.min_stake_of(consensus::Role::Other) <= 0) {
    last_feasible_ = false;
    return 0;
  }
  const BoundInputs inputs = BoundInputs::from_snapshot(effective);

  if (fixed_split_) {
    const BiBounds bounds = compute_bi_bounds(*fixed_split_, inputs, costs_);
    last_split_ = *fixed_split_;
    last_feasible_ = bounds.feasible;
    if (!bounds.feasible) return 0;
    return static_cast<ledger::MicroAlgos>(std::ceil(bounds.required()) + 1);
  }

  const OptimizerResult result = optimizer_.optimize(inputs, costs_);
  last_split_ = result.split;
  last_feasible_ = result.feasible;
  if (!result.feasible) return 0;
  return static_cast<ledger::MicroAlgos>(std::ceil(result.min_bi));
}

Payouts RoleBasedScheme::distribute(ledger::Round,
                                    const RoleSnapshot& snapshot,
                                    ledger::MicroAlgos budget) {
  RS_REQUIRE(budget >= 0, "budget must be non-negative");
  Payouts out;
  out.amounts.assign(snapshot.node_count(), 0);
  if (budget == 0) return out;

  // The filter only affects who counts toward S_K / receives from the γ
  // pot; leaders and committee always participate. The pot stakes come
  // from the filtered snapshot, but the payout walk stays on the full one:
  // filtering drops Others and so shifts node ids.
  std::optional<RoleSnapshot> filtered;
  if (min_other_stake_) filtered = snapshot.filtered_others(*min_other_stake_);
  const RoleSnapshot& effective = filtered ? *filtered : snapshot;
  const auto pot = [&effective](consensus::Role role) {
    return static_cast<double>(effective.stake_of(role));
  };
  const std::int64_t threshold = min_other_stake_.value_or(0);
  const double b = static_cast<double>(budget);

  for (std::size_t v = 0; v < snapshot.node_count(); ++v) {
    const auto id = static_cast<ledger::NodeId>(v);
    const double stake = static_cast<double>(snapshot.stake(id));
    double share = 0.0;
    switch (snapshot.role(id)) {
      case consensus::Role::Leader:
        share = pot_share(last_split_.alpha, b, stake,
                          pot(consensus::Role::Leader));
        break;
      case consensus::Role::Committee:
        share = pot_share(last_split_.beta, b, stake,
                          pot(consensus::Role::Committee));
        break;
      case consensus::Role::Other:
        if (snapshot.stake(id) >= threshold)
          share = pot_share(last_split_.gamma(), b, stake,
                            pot(consensus::Role::Other));
        break;
    }
    const auto amount = static_cast<ledger::MicroAlgos>(std::floor(share));
    out.amounts[v] = amount;
    out.total += amount;
  }
  RS_ENSURE(out.total <= budget, "disbursed more than the budget");
  return out;
}

}  // namespace roleshare::econ

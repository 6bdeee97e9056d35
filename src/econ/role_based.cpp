#include "econ/role_based.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::econ {

RoleBasedScheme::RoleBasedScheme(CostModel costs) : costs_(costs) {}

ledger::MicroAlgos RoleBasedScheme::required_budget(
    ledger::Round, const RoleSnapshot& snapshot) {
  // Degenerate round: a role is empty (sortition elected nobody) or holds
  // a zero-stake member, leaving the Theorem-3 bounds undefined (min
  // stake s*_x enters as a divisor — a node with nothing at stake has no
  // deviation cost to bound). Pay nothing rather than divide by zero;
  // min_stake_of() returns 0 for empty roles, so one check covers both.
  if (snapshot.min_stake_of(consensus::Role::Leader) <= 0 ||
      snapshot.min_stake_of(consensus::Role::Committee) <= 0 ||
      snapshot.min_stake_of(consensus::Role::Other) <= 0) {
    last_feasible_ = false;
    return 0;
  }
  const OptimizerResult result = optimizer_.optimize(snapshot, costs_);
  last_split_ = result.split;
  last_feasible_ = result.feasible;
  if (!result.feasible) return 0;
  return static_cast<ledger::MicroAlgos>(std::ceil(result.min_bi));
}

Payouts RoleBasedScheme::distribute(ledger::Round,
                                    const RoleSnapshot& snapshot,
                                    ledger::MicroAlgos budget) const {
  RS_REQUIRE(budget >= 0, "budget must be non-negative");
  Payouts out;
  out.amounts.assign(snapshot.node_count(), 0);
  if (budget == 0) return out;

  const auto pot = [&snapshot](consensus::Role role) {
    return static_cast<double>(snapshot.stake_of(role));
  };
  const double b = static_cast<double>(budget);
  for (std::size_t v = 0; v < snapshot.node_count(); ++v) {
    const auto id = static_cast<ledger::NodeId>(v);
    const consensus::Role role = snapshot.role(id);
    const double fraction = role == consensus::Role::Leader ? last_split_.alpha
                            : role == consensus::Role::Committee
                                ? last_split_.beta
                                : last_split_.gamma();
    const auto amount = static_cast<ledger::MicroAlgos>(std::floor(
        pot_share(fraction, b, static_cast<double>(snapshot.stake(id)),
                  pot(role))));
    out.amounts[v] = amount;
    out.total += amount;
  }
  RS_ENSURE(out.total <= budget, "disbursed more than the budget");
  return out;
}

}  // namespace roleshare::econ

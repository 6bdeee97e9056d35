#include "econ/stake_proportional.hpp"

#include "util/require.hpp"

namespace roleshare::econ {

ledger::MicroAlgos StakeProportionalScheme::required_budget(
    ledger::Round round, const RoleSnapshot&) const {
  return FoundationSchedule::reward_for_round(round);
}

Payouts StakeProportionalScheme::distribute(ledger::Round,
                                            const RoleSnapshot& snapshot,
                                            ledger::MicroAlgos budget) const {
  RS_REQUIRE(budget >= 0, "budget must be non-negative");
  Payouts out;
  out.amounts.assign(snapshot.node_count(), 0);
  const std::int64_t sn = snapshot.total_stake();
  if (sn == 0 || budget == 0) return out;

  // r_i = B_i / S_N, identical for every role (Eq 3). 128-bit intermediate
  // avoids overflow for mainnet-scale budgets * stakes.
  for (std::size_t v = 0; v < snapshot.node_count(); ++v) {
    const auto share = static_cast<ledger::MicroAlgos>(
        static_cast<__int128>(budget) * snapshot.stake(static_cast<ledger::NodeId>(v)) / sn);
    out.amounts[v] = share;
    out.total += share;
  }
  RS_ENSURE(out.total <= budget, "disbursed more than the budget");
  return out;
}

}  // namespace roleshare::econ

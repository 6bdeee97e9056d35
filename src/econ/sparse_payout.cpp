#include "econ/sparse_payout.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::econ {

SparsePayoutTotals distribute_touched(const RewardSplit& split,
                                      ledger::MicroAlgos budget,
                                      std::span<const consensus::Role> roles,
                                      std::span<const std::int64_t> stakes,
                                      std::int64_t online_stake,
                                      std::span<ledger::MicroAlgos> amounts) {
  RS_REQUIRE(budget >= 0, "budget must be non-negative");
  RS_REQUIRE(roles.size() == stakes.size() && roles.size() == amounts.size(),
             "touched spans must be parallel");
  SparsePayoutTotals out;
  for (std::size_t i = 0; i < roles.size(); ++i) {
    amounts[i] = 0;
    if (roles[i] == consensus::Role::Leader) out.leader_stake += stakes[i];
    if (roles[i] == consensus::Role::Committee)
      out.committee_stake += stakes[i];
  }
  out.other_stake = online_stake - out.leader_stake - out.committee_stake;
  RS_REQUIRE(out.other_stake >= 0,
             "touched role stakes exceed the online stake");
  if (budget == 0) return out;

  // The pot arithmetic of RoleBasedScheme::distribute: pot_share, then
  // floor to µAlgos, so compounded sparse economies drift exactly as the
  // dense scheme would.
  const double b = static_cast<double>(budget);
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const double stake = static_cast<double>(stakes[i]);
    double share = 0.0;
    switch (roles[i]) {
      case consensus::Role::Leader:
        share = pot_share(split.alpha, b, stake,
                          static_cast<double>(out.leader_stake));
        break;
      case consensus::Role::Committee:
        share = pot_share(split.beta, b, stake,
                          static_cast<double>(out.committee_stake));
        break;
      case consensus::Role::Other:
        break;  // the γ pot is reported below, not individually paid
    }
    const auto amount = static_cast<ledger::MicroAlgos>(std::floor(share));
    amounts[i] = amount;
    out.paid += amount;
  }
  out.others_pot = out.other_stake > 0
                       ? static_cast<ledger::MicroAlgos>(
                             std::floor(split.gamma() * b))
                       : 0;
  RS_ENSURE(out.paid <= budget, "disbursed more than the budget");
  return out;
}

}  // namespace roleshare::econ

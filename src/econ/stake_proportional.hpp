// The Algorand Foundation's proposed reward sharing (baseline, Eq 3):
// every online node — regardless of role or of whether it actually
// cooperated — receives B_i * s_j / S_N, with B_i = R_i following the
// Table-III emission schedule.
#pragma once

#include "econ/foundation_schedule.hpp"
#include "econ/reward_scheme.hpp"
#include "econ/role_snapshot.hpp"

namespace roleshare::econ {

class StakeProportionalScheme {
 public:
  /// R_i from the Table-III schedule, µAlgos.
  ledger::MicroAlgos required_budget(ledger::Round round,
                                     const RoleSnapshot& snapshot) const;

  /// Splits `budget` µAlgos across the online nodes by stake.
  Payouts distribute(ledger::Round round, const RoleSnapshot& snapshot,
                     ledger::MicroAlgos budget) const;
};

}  // namespace roleshare::econ

// The two reward schemes the paper compares: the Foundation's
// stake-proportional baseline (Eq 3, stake_proportional.hpp) and the
// role-based mechanism (Eq 5 + Algorithm 1, role_based.hpp).
//
// Each scheme answers two questions per round: how large a reward B_i it
// wants to withdraw from the pool (required_budget), and how that B_i is
// divided among the online nodes given the round's role snapshot
// (distribute). The sum of payouts never exceeds the budget: integer
// floor rounding leaves dust in the pool.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger/types.hpp"

namespace roleshare::econ {

/// One round's reward disbursement.
struct Payouts {
  /// µAlgos per node, indexed like the snapshot.
  std::vector<ledger::MicroAlgos> amounts;
  /// Sum of `amounts` (== the B_i actually paid, up to integer rounding).
  ledger::MicroAlgos total = 0;
};

/// Which of the two schemes pays a round: the game's G_Al / G_Al+ and the
/// strategic loop's reward rule.
enum class SchemeKind : std::uint8_t { StakeProportional, RoleBased };

}  // namespace roleshare::econ

// The two reward schemes the paper compares, and the payout type of the
// role-based one.
//
// The Foundation's stake-proportional baseline (Eq 3) withdraws the
// Table-III R_i (FoundationSchedule::reward_for_round) and pays it as one
// pot over the online stake: the game's reward_of calls pot_share with
// the whole budget. The role-based mechanism (Eq 5 + Algorithm 1,
// role_based.hpp) asks for the minimal incentive-compatible B_i and
// divides it among the round's role pots; the sum of its payouts never
// exceeds the budget, because integer floor rounding leaves dust in the
// pool.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger/types.hpp"

namespace roleshare::econ {

/// One round's role-based reward disbursement.
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

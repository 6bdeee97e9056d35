// Role-based reward payouts evaluated on a round's touched set only.
//
// RoleBasedScheme::distribute walks the full population snapshot — O(N)
// per round, which the sparse round path cannot afford. But under a
// given split the α and β pots only ever pay the round's leaders and
// committee members, all of whom the sparse round already collected
// (sim/sampled_round.hpp's touched list), and the role stake sums the
// shares divide by are available without a population walk:
//
//   S_L, S_M   from the touched entries' observed roles and reward stakes
//   S_K        = online_stake − S_L − S_M (every other online node is an
//               observed Other carrying its full stake; offline nodes
//               carry 0 — the dense snapshot's exact accounting)
//
// distribute_touched and RoleBasedScheme::distribute share the pot
// arithmetic (econ::pot_share, then the same floor), so the Leader and
// Committee amounts agree by construction (test_longhorizon.cpp checks
// the equality) and compounding the sparse payouts drifts stakes exactly
// as the dense scheme would.
//
// The γ pot is the one modelled difference: paying it means crediting
// every online node — O(N) — so the sparse path reports the pot total
// without individual payouts. Long-horizon economies treat the Others
// share as consumed (covering participation costs) rather than
// compounded; DESIGN.md §10 records the approximation.
#pragma once

#include <span>

#include "consensus/roles.hpp"
#include "econ/bi_bounds.hpp"
#include "ledger/types.hpp"

namespace roleshare::econ {

/// distribute_touched's round totals.
struct SparsePayoutTotals {
  /// µAlgos actually credited (Leader + Committee pots after flooring).
  ledger::MicroAlgos paid = 0;
  /// γ pot in µAlgos — owed to Others collectively, not individually paid.
  ledger::MicroAlgos others_pot = 0;
  /// Role stake sums the shares were computed from (paper's S_L/S_M/S_K).
  std::int64_t leader_stake = 0;
  std::int64_t committee_stake = 0;
  std::int64_t other_stake = 0;
};

/// Computes `split`'s role payouts for the touched set: `roles`,
/// `stakes` and `amounts` are parallel (observed role, reward stake in
/// Algos — 0 when offline); `online_stake` is the round's total online
/// stake in Algos. Writes each touched node's µAlgo payout into `amounts`
/// (Others get 0 — see the file comment) and returns the totals.
SparsePayoutTotals distribute_touched(const RewardSplit& split,
                                      ledger::MicroAlgos budget,
                                      std::span<const consensus::Role> roles,
                                      std::span<const std::int64_t> stakes,
                                      std::int64_t online_stake,
                                      std::span<ledger::MicroAlgos> amounts);

}  // namespace roleshare::econ

// Theorem-3 lower bounds on the per-round reward B_i.
//
// For reward shares (α, β, γ = 1 − α − β), cooperation is a Nash
// equilibrium (on the Theorem-3 strategy profile) iff B_i exceeds all of:
//
//   leader bound     (c_L − c_so) / ((α/S_L − γ/(S_K + s*_l)) · s*_l)
//   committee bound  (c_M − c_so) / ((β/S_M − γ/(S_K + s*_m)) · s*_m)
//   online bound     (c_K − c_so) · S_K / (s*_k · γ)
//
// with the feasibility conditions Eq (8)/(9): both leader and committee
// denominators must be positive. All currency values here are µAlgos.
#pragma once

#include <string>

#include "econ/cost_model.hpp"
#include "econ/role_snapshot.hpp"

namespace roleshare::econ {

/// Reward split across roles. γ is derived; constructor enforces
/// α, β > 0, α + β < 1 (so γ > 0), as the mechanism requires every role to
/// get a positive share.
struct RewardSplit {
  double alpha;
  double beta;

  RewardSplit(double a, double b);
  double gamma() const { return 1.0 - alpha - beta; }
};

/// One holder's Eq (5) share of a role pot: `fraction` of `budget`, split
/// by stake among the pot's `pot_stake`; 0 when the pot holds no stake.
/// The product is evaluated left to right, the order every payout and
/// golden digest depends on.
inline double pot_share(double fraction, double budget, double stake,
                        double pot_stake) {
  return pot_stake > 0.0 ? fraction * budget * stake / pot_stake : 0.0;
}

/// Inputs to the bound computation, decoupled from RoleSnapshot so the
/// numerical analysis (Fig 5) can sweep synthetic populations.
struct BoundInputs {
  double stake_leaders = 0;        // S_L
  double stake_committee = 0;      // S_M
  double stake_others = 0;         // S_K
  double min_stake_leader = 0;     // s*_l
  double min_stake_committee = 0;  // s*_m
  double min_stake_other = 0;      // s*_k

  /// Extracts the aggregates from a concrete round snapshot.
  static BoundInputs from_snapshot(const RoleSnapshot& snapshot);

  /// Throws std::invalid_argument when any aggregate is non-positive.
  void validate() const;
};

struct BiBounds {
  double leader_bound = 0;     // µAlgos
  double committee_bound = 0;  // µAlgos
  double online_bound = 0;     // µAlgos
  bool feasible = false;       // Eq (8) and (9) hold

  /// max of the three bounds; +inf when infeasible.
  double required() const;
};

/// Evaluates the Theorem-3 bounds for a split and population.
BiBounds compute_bi_bounds(const RewardSplit& split, const BoundInputs& in,
                           const CostModel& costs);

}  // namespace roleshare::econ

#include "econ/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace roleshare::econ {

OptimizerResult RewardOptimizer::optimize(const BoundInputs& in,
                                          const CostModel& costs) const {
  in.validate();
  OptimizerResult result;

  // Closed-form pieces (see header): A, B drive the leader/committee
  // bounds, D the online bound, C the feasibility floors' slope in gamma.
  const double a_num = (costs.leader_cost() - costs.defection_cost()) *
                       in.stake_leaders / in.min_stake_leader;
  const double b_num = (costs.committee_cost() - costs.defection_cost()) *
                       in.stake_committee / in.min_stake_committee;
  const double d_num = (costs.other_cost() - costs.defection_cost()) *
                       in.stake_others / in.min_stake_other;
  const double c_slope =
      in.stake_leaders / (in.stake_others + in.min_stake_leader) +
      in.stake_committee / (in.stake_others + in.min_stake_committee);

  // Optimal gamma: crossing of R(gamma) = (A+B)/(1 - gamma(1+C)) with
  // D/gamma; if D == 0 (cooperating as an Other costs no more than
  // defecting) the online bound vanishes and gamma shrinks to the floor.
  double gamma = d_num > 0.0
                     ? d_num / (a_num + b_num + d_num * (1.0 + c_slope))
                     : kMinShare;
  const double gamma_max = 1.0 / (1.0 + c_slope);
  gamma = std::clamp(gamma, kMinShare, gamma_max * (1.0 - kMinShare));

  // Equalizing allocation of the slack above the feasibility floors.
  const double slack = 1.0 - gamma * (1.0 + c_slope);
  RS_ENSURE(slack > 0.0, "gamma clamp must leave slack");
  const double alpha_min =
      in.stake_leaders * gamma / (in.stake_others + in.min_stake_leader);
  const double beta_min =
      in.stake_committee * gamma / (in.stake_others + in.min_stake_committee);
  const double denom = a_num + b_num;
  // Degenerate A = B = 0 (role costs equal defection cost): split evenly.
  // The clamp keeps both alpha and beta strictly above their floors even
  // when only one bound carries weight, preserving Eq-(8)/(9) strictness.
  const double a_share =
      denom > 0.0 ? std::clamp(a_num / denom, 1e-6, 1.0 - 1e-6) : 0.5;
  double alpha = alpha_min + slack * a_share;
  double beta = beta_min + slack * (1.0 - a_share);
  // Keep every share strictly positive.
  alpha = std::max(alpha, kMinShare);
  beta = std::max(beta, kMinShare);
  if (alpha + beta >= 1.0 - kMinShare) {
    const double scale = (1.0 - gamma) / (alpha + beta);
    alpha *= scale;
    beta *= scale;
  }

  result.split = RewardSplit(alpha, beta);
  result.bounds = compute_bi_bounds(result.split, in, costs);
  result.feasible = result.bounds.feasible;
  if (result.feasible) {
    result.min_bi = result.bounds.required() * (1.0 + kMargin);
  } else {
    result.min_bi = std::numeric_limits<double>::infinity();
  }
  return result;
}

OptimizerResult RewardOptimizer::optimize(const RoleSnapshot& snapshot,
                                          const CostModel& costs) const {
  return optimize(BoundInputs::from_snapshot(snapshot), costs);
}

}  // namespace roleshare::econ

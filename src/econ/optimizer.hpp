// Algorithm 1 — Incentive-Compatible Reward Sharing.
//
// At the end of each round the Foundation computes S_L, S_M, S_K and the
// per-role minimum stakes, then picks (α, β) minimizing the Theorem-3
// required reward B_i. The minimization has a closed form:
//
// Write the bounds with slack variables a = α − α_min, b = β − β_min where
// α_min = S_L·γ/(S_K+s*_l) and β_min = S_M·γ/(S_K+s*_m) are the Eq-(8)/(9)
// feasibility floors. Then
//     leader bound    = A / a,   A = (c_L − c_so)·S_L / s*_l
//     committee bound = B / b,   B = (c_M − c_so)·S_M / s*_m
//     online bound    = D / γ,   D = (c_K − c_so)·S_K / s*_k
// With a + b = 1 − γ(1 + C) fixed (C = S_L/(S_K+s*_l) + S_M/(S_K+s*_m)),
// max(A/a, B/b) is minimized by the equalizing split a : b = A : B, giving
// the role bound R(γ) = (A+B) / (1 − γ(1+C)) — strictly increasing in γ —
// while the online bound D/γ strictly decreases. The minimum of their max
// is at the crossing:
//     γ* = D / (A + B + D(1+C)),   B_i* = D / γ* = A + B + D(1+C).
//
// On the paper's §V-A numbers this yields B_i* ≈ 5.09 Algos at tiny (α, β)
// — the floor under the ≈5.2 Algos the paper quotes at (0.02, 0.03).
#pragma once

#include "econ/bi_bounds.hpp"

namespace roleshare::econ {

struct OptimizerResult {
  RewardSplit split{0.01, 0.01};
  BiBounds bounds;
  /// Minimal incentive-compatible per-round reward, µAlgos
  /// ((1 + kMargin) × binding bound).
  double min_bi = 0;
  bool feasible = false;
};

class RewardOptimizer {
 public:
  /// Safety margin: the returned B_i is (1 + kMargin) × the binding bound,
  /// so the Theorem-3 inequalities are strict.
  static constexpr double kMargin = 1e-6;
  /// Floor on γ (and on the α/β slacks) to keep the split strictly
  /// interior when the online bound vanishes (c_K == c_so).
  static constexpr double kMinShare = 1e-9;

  /// Runs Algorithm 1's ComputeParameters for one round's population.
  OptimizerResult optimize(const BoundInputs& inputs,
                           const CostModel& costs) const;

  /// Convenience overload extracting the aggregates from a snapshot.
  OptimizerResult optimize(const RoleSnapshot& snapshot,
                           const CostModel& costs) const;
};

}  // namespace roleshare::econ

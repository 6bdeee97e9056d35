// E4 — Figure 5: minimum incentive-compatible reward B_i over the (α, β)
// grid, for the paper's §V-A parameterization (s*_l = s*_m = 1, s*_k = 10,
// c_L=16, c_M=12, c_K=6, c_so=5 µAlgos, S_L=26, S_M=13k, S_N=50M).
//
// Expected shape: B_i is minimized at small (α, β) — the online-node bound
// dominates because S_K >> S_L, S_M — with a minimum around 5.2 Algos near
// (0.02, 0.03), rising as α+β grows (γ shrinks) and diverging near the
// feasibility boundary.
#include <cstdio>

#include "bench_util.hpp"
#include "consensus/params.hpp"
#include "econ/optimizer.hpp"

using namespace roleshare;

int main(int, char**) {
  bench::print_header("Figure 5", "minimum B_i over reward splits (alpha, beta)");

  // S_L = tau_proposer and S_M = 3 tau_step + tau_final (§V-B).
  const consensus::ConsensusParams params;
  econ::BoundInputs in;
  in.stake_leaders = static_cast<double>(params.expected_proposer_stake);
  in.stake_committee =
      static_cast<double>(params.expected_committee_stake_per_round());
  in.stake_others = 50'000'000.0 - in.stake_leaders - in.stake_committee;
  in.min_stake_leader = 1;
  in.min_stake_committee = 1;
  in.min_stake_other = 10;
  const econ::CostModel costs;

  const double grid[] = {0.01, 0.02, 0.03, 0.05, 0.10,
                         0.20, 0.30, 0.40, 0.60};

  std::printf("min B_i in Algos; rows alpha, columns beta; '-' = infeasible\n\n");
  std::printf("%7s", "a\\b");
  for (const double beta : grid) std::printf("%9.2f", beta);
  std::printf("\n");
  for (const double alpha : grid) {
    std::printf("%7.2f", alpha);
    for (const double beta : grid) {
      if (alpha + beta >= 1.0) {
        std::printf("%9s", "-");
        continue;
      }
      const econ::BiBounds bounds =
          econ::compute_bi_bounds(econ::RewardSplit(alpha, beta), in, costs);
      if (!bounds.feasible) {
        std::printf("%9s", "-");
      } else {
        std::printf("%9.2f", bounds.required() / 1e6);
      }
    }
    std::printf("\n");
  }

  // Paper's highlighted point and the optimizer's global minimum.
  const econ::BiBounds paper_point =
      econ::compute_bi_bounds(econ::RewardSplit(0.02, 0.03), in, costs);
  std::printf("\nPaper point (alpha, beta) = (0.02, 0.03): B_i = %.2f Algos "
              "(paper: ~5.2)\n",
              paper_point.required() / 1e6);

  const econ::RewardOptimizer optimizer;
  const econ::OptimizerResult best = optimizer.optimize(in, costs);
  std::printf("Algorithm-1 optimum: (alpha, beta) = (%.4f, %.4f), "
              "B_i = %.2f Algos, gamma = %.3f\n",
              best.split.alpha, best.split.beta, best.min_bi / 1e6,
              best.split.gamma());
  std::printf("Binding bound: leader=%.3f committee=%.3f online=%.3f (Algos)\n",
              best.bounds.leader_bound / 1e6,
              best.bounds.committee_bound / 1e6,
              best.bounds.online_bound / 1e6);
  return 0;
}

#include "econ/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace roleshare::econ {
namespace {

BoundInputs paper_inputs() {
  BoundInputs in;
  in.stake_leaders = 26;
  in.stake_committee = 13'000;
  in.stake_others = 50'000'000.0 - 26 - 13'000;
  in.min_stake_leader = 1;
  in.min_stake_committee = 1;
  in.min_stake_other = 10;
  return in;
}

TEST(Optimizer, FindsFeasibleMinimumNearPaperValue) {
  const RewardOptimizer opt;
  const OptimizerResult r = opt.optimize(paper_inputs(), CostModel{});
  ASSERT_TRUE(r.feasible);
  // The paper reports ~5.2 Algos at (0.02, 0.03); the true optimum pushes
  // gamma slightly higher, so the minimized B_i lands just above the
  // gamma=1 limit of 5.0 Algos and below the paper's point.
  const double bi_algos = r.min_bi / 1e6;
  EXPECT_GT(bi_algos, 4.9);
  EXPECT_LT(bi_algos, 5.6);
  // Small alpha/beta, large gamma — Fig-5's qualitative shape.
  EXPECT_LT(r.split.alpha, 0.1);
  EXPECT_LT(r.split.beta, 0.1);
  EXPECT_GT(r.split.gamma(), 0.8);
}

TEST(Optimizer, ResultSatisfiesItsOwnBounds) {
  const RewardOptimizer opt;
  const OptimizerResult r = opt.optimize(paper_inputs(), CostModel{});
  ASSERT_TRUE(r.feasible);
  const BiBounds check =
      compute_bi_bounds(r.split, paper_inputs(), CostModel{});
  ASSERT_TRUE(check.feasible);
  EXPECT_GT(r.min_bi, check.required() * 0.9999);
}

TEST(Optimizer, NoGridNeighborBeatsResult) {
  const RewardOptimizer opt;
  const BoundInputs in = paper_inputs();
  const OptimizerResult r = opt.optimize(in, CostModel{});
  ASSERT_TRUE(r.feasible);
  // Probe a local neighborhood around the incumbent.
  for (const double da : {-0.005, 0.0, 0.005}) {
    for (const double db : {-0.005, 0.0, 0.005}) {
      const double a = r.split.alpha + da;
      const double b = r.split.beta + db;
      if (a <= 0 || b <= 0 || a + b >= 1) continue;
      const BiBounds probe =
          compute_bi_bounds(RewardSplit(a, b), in, CostModel{});
      if (!probe.feasible) continue;
      EXPECT_GE(probe.required() * (1 + 1e-6), r.bounds.required() * 0.999)
          << "better neighbor at (" << a << ", " << b << ")";
    }
  }
}

TEST(Optimizer, DeterministicAcrossCalls) {
  const RewardOptimizer opt;
  const OptimizerResult a = opt.optimize(paper_inputs(), CostModel{});
  const OptimizerResult b = opt.optimize(paper_inputs(), CostModel{});
  EXPECT_DOUBLE_EQ(a.min_bi, b.min_bi);
  EXPECT_DOUBLE_EQ(a.split.alpha, b.split.alpha);
  EXPECT_DOUBLE_EQ(a.split.beta, b.split.beta);
}

TEST(Optimizer, HigherCommitteeCostsRaiseBi) {
  const RewardOptimizer opt;
  const OptimizerResult base = opt.optimize(paper_inputs(), CostModel{});
  TaskCosts tasks;
  tasks.cvo = 192.0;  // c_M = 6 + 2 + 192 = 200 µAlgos
  const CostModel expensive(tasks);
  const OptimizerResult costly = opt.optimize(paper_inputs(), expensive);
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(costly.feasible);
  EXPECT_GE(costly.min_bi, base.min_bi);
}

TEST(Optimizer, SnapshotOverloadAgreesWithInputs) {
  using consensus::Role;
  const RoleSnapshot snap(
      {Role::Leader, Role::Leader, Role::Committee, Role::Committee,
       Role::Other, Role::Other, Role::Other, Role::Other},
      {3, 5, 10, 12, 40, 60, 25, 80});
  const RewardOptimizer opt;
  const OptimizerResult via_snapshot = opt.optimize(snap, CostModel{});
  const OptimizerResult via_inputs =
      opt.optimize(BoundInputs::from_snapshot(snap), CostModel{});
  EXPECT_DOUBLE_EQ(via_snapshot.min_bi, via_inputs.min_bi);
}

TEST(Optimizer, MarginMakesInequalityStrict) {
  const RewardOptimizer opt;
  const OptimizerResult r = opt.optimize(paper_inputs(), CostModel{});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.min_bi, r.bounds.required() * (1.0 + RewardOptimizer::kMargin));
  EXPECT_GT(r.min_bi, r.bounds.required());
}

TEST(Optimizer, ClosedFormMatchesAnalyticOptimum) {
  // gamma* = D / (A + B + D(1+C)) and B_i* = A + B + D(1+C); see
  // optimizer.hpp for the derivation.
  const BoundInputs in = paper_inputs();
  const CostModel costs;
  const double a_num = (16.0 - 5.0) * in.stake_leaders / 1.0;
  const double b_num = (12.0 - 5.0) * in.stake_committee / 1.0;
  const double d_num = (6.0 - 5.0) * in.stake_others / 10.0;
  const double c_slope = in.stake_leaders / (in.stake_others + 1.0) +
                         in.stake_committee / (in.stake_others + 1.0);
  const double expected_bi = a_num + b_num + d_num * (1.0 + c_slope);

  const RewardOptimizer opt;
  const OptimizerResult r = opt.optimize(in, costs);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_bi, expected_bi, expected_bi * 1e-4);
  EXPECT_NEAR(r.split.gamma(), d_num / expected_bi, 1e-6);
}

TEST(Optimizer, DegenerateMostlyCommitteePopulationStaysFeasible) {
  // The regime that breaks naive grid search: S_M >> S_K squeezes the
  // feasible (alpha, beta) region into a sliver near alpha+beta ~ 1.
  BoundInputs in;
  in.stake_leaders = 242;
  in.stake_committee = 3518;
  in.stake_others = 14;
  in.min_stake_leader = 14;
  in.min_stake_committee = 2;
  in.min_stake_other = 1;
  const RewardOptimizer opt;
  const OptimizerResult r = opt.optimize(in, CostModel{});
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.min_bi, 0.0);
  EXPECT_LT(r.split.gamma(), 0.01);  // gamma squeezed, but positive
  // And the returned split satisfies its own bounds.
  const BiBounds check = compute_bi_bounds(r.split, in, CostModel{});
  EXPECT_TRUE(check.feasible);
  EXPECT_GE(r.min_bi, check.required());
}

TEST(Optimizer, ScalesWithMinOtherStake) {
  // Raising s*_k by excluding small holders should scale B_i down ~1/s*_k
  // (the Fig-7(c) lever).
  const RewardOptimizer opt;
  BoundInputs in = paper_inputs();
  const double base = opt.optimize(in, CostModel{}).min_bi;
  in.min_stake_other = 20;
  const double filtered = opt.optimize(in, CostModel{}).min_bi;
  EXPECT_NEAR(filtered / base, 0.5, 0.05);
}

}  // namespace
}  // namespace roleshare::econ

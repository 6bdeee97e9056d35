#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "econ/role_based.hpp"
#include "econ/stake_proportional.hpp"
#include "util/rng.hpp"

namespace roleshare::econ {
namespace {

using consensus::Role;
using ledger::algos;

RoleSnapshot snapshot() {
  // leaders: stakes {2, 3}; committee: {5, 5}; others: {10, 20, 5}.
  return RoleSnapshot(
      {Role::Leader, Role::Leader, Role::Committee, Role::Committee,
       Role::Other, Role::Other, Role::Other},
      {2, 3, 5, 5, 10, 20, 5});
}

TEST(StakeProportional, BudgetFollowsSchedule) {
  StakeProportionalScheme scheme;
  const RoleSnapshot s = snapshot();
  EXPECT_EQ(scheme.required_budget(1, s), algos(20));
  EXPECT_EQ(scheme.required_budget(500'001, s), algos(26));  // 13M / 500k
}

TEST(StakeProportional, SharesAreStakeProportionalAndRoleBlind) {
  StakeProportionalScheme scheme;
  const RoleSnapshot s = snapshot();  // S_N = 50
  const Payouts p = scheme.distribute(1, s, algos(50));
  // r_i = B_i / S_N = 1 Algo per stake unit, same rate for every role.
  EXPECT_EQ(p.amounts[0], algos(2));
  EXPECT_EQ(p.amounts[2], algos(5));
  EXPECT_EQ(p.amounts[5], algos(20));
  EXPECT_EQ(p.total, algos(50));
}

TEST(StakeProportional, NeverExceedsBudget) {
  StakeProportionalScheme scheme;
  const RoleSnapshot s = snapshot();
  const Payouts p = scheme.distribute(1, s, 997);  // awkward remainder
  EXPECT_LE(p.total, 997);
}

TEST(StakeProportional, ZeroBudgetZeroPayouts) {
  StakeProportionalScheme scheme;
  const Payouts p = scheme.distribute(1, snapshot(), 0);
  EXPECT_EQ(p.total, 0);
  for (const auto amount : p.amounts) EXPECT_EQ(amount, 0);
}

TEST(StakeProportional, ZeroStakeNodeGetsNothing) {
  StakeProportionalScheme scheme;
  const RoleSnapshot s({Role::Other, Role::Other}, {0, 10});
  const Payouts p = scheme.distribute(1, s, algos(10));
  EXPECT_EQ(p.amounts[0], 0);
  EXPECT_EQ(p.amounts[1], algos(10));
}

TEST(RoleBased, FixedSplitDividesPots) {
  const RewardSplit split(0.2, 0.3);  // gamma = 0.5
  RoleBasedScheme scheme(CostModel{}, split);
  const RoleSnapshot s = snapshot();  // S_L=5, S_M=10, S_K=35
  const ledger::MicroAlgos budget = algos(100);
  const Payouts p = scheme.distribute(1, s, budget);

  // Leader pot: 20 Algos over S_L=5 -> 4 Algos per stake unit.
  EXPECT_EQ(p.amounts[0], algos(8));
  EXPECT_EQ(p.amounts[1], algos(12));
  // Committee pot: 30 Algos over S_M=10 -> 3 Algos per stake.
  EXPECT_EQ(p.amounts[2], algos(15));
  EXPECT_EQ(p.amounts[3], algos(15));
  // Gamma pot: 50 Algos over S_K=35.
  EXPECT_NEAR(static_cast<double>(p.amounts[4]),
              static_cast<double>(budget) * 0.5 * 10 / 35, 2.0);
  EXPECT_LE(p.total, budget);
  // All but integer dust is disbursed.
  EXPECT_GT(p.total, budget - 10);
}

TEST(RoleBased, LeaderRatePerStakeExceedsOthersWhenAlphaGenerous) {
  const RewardSplit split(0.3, 0.3);
  RoleBasedScheme scheme(CostModel{}, split);
  const RoleSnapshot s = snapshot();
  const Payouts p = scheme.distribute(1, s, algos(100));
  const double leader_rate = static_cast<double>(p.amounts[0]) / 2.0;
  const double other_rate = static_cast<double>(p.amounts[4]) / 10.0;
  EXPECT_GT(leader_rate, other_rate);
}

TEST(RoleBased, AdaptiveBudgetSatisfiesTheoremThreeBounds) {
  RoleBasedScheme scheme(CostModel{});
  const RoleSnapshot s = snapshot();
  const ledger::MicroAlgos budget = scheme.required_budget(1, s);
  ASSERT_TRUE(scheme.last_feasible());
  ASSERT_GT(budget, 0);
  const BiBounds bounds = compute_bi_bounds(
      scheme.last_split(), BoundInputs::from_snapshot(s), CostModel{});
  ASSERT_TRUE(bounds.feasible);
  EXPECT_GT(static_cast<double>(budget), bounds.required() * 0.999);
}

TEST(RoleBased, DegenerateRoundPaysNothing) {
  RoleBasedScheme scheme(CostModel{});
  const RoleSnapshot no_leader(
      {Role::Committee, Role::Other, Role::Other}, {5, 5, 5});
  EXPECT_EQ(scheme.required_budget(1, no_leader), 0);
  EXPECT_FALSE(scheme.last_feasible());
}

// Regression, shrunk by PropRewards.RoleBasedAdaptiveConservesBudget
// (minimal counterexample: one zero-stake node per role). A role whose
// members all hold zero stake slipped past the empty-role guard and made
// BoundInputs::validate() throw out of required_budget; the scheme must
// treat it as a degenerate round and pay nothing instead.
TEST(RoleBased, ZeroStakeRoleMemberIsDegenerateNotFatal) {
  RoleBasedScheme scheme(CostModel{});
  const RoleSnapshot all_zero(
      {Role::Leader, Role::Committee, Role::Other}, {0, 0, 0});
  EXPECT_EQ(scheme.required_budget(1, all_zero), 0);
  EXPECT_FALSE(scheme.last_feasible());
  // A zero-stake leader alongside funded nodes leaves s*_l = 0 and the
  // Theorem-3 bounds just as undefined.
  const RoleSnapshot mixed(
      {Role::Leader, Role::Leader, Role::Committee, Role::Other},
      {0, 5, 5, 5});
  EXPECT_EQ(scheme.required_budget(1, mixed), 0);
  EXPECT_FALSE(scheme.last_feasible());
}

TEST(RoleBased, MinOtherStakeFilterExcludesSmallHolders) {
  const RewardSplit split(0.2, 0.3);
  RoleBasedScheme scheme(CostModel{}, split, std::int64_t{10});
  const RoleSnapshot s = snapshot();  // others: 10, 20, 5 -> 5 filtered out
  const Payouts p = scheme.distribute(1, s, algos(100));
  EXPECT_EQ(p.amounts[6], 0);  // stake-5 other gets nothing
  // Gamma pot divides over S_K = 30 now.
  EXPECT_NEAR(static_cast<double>(p.amounts[4]),
              static_cast<double>(algos(100)) * 0.5 * 10 / 30, 2.0);
}

// min_other_stake = 0 keeps every Other, so the filtered copy and the
// unfiltered in-place read of the same snapshot must agree exactly.
TEST(RoleBased, ZeroStakeFilterMatchesNoFilter) {
  util::Rng rng(2323);
  std::vector<Role> roles(200);
  std::vector<std::int64_t> stakes(200);
  for (std::size_t v = 0; v < roles.size(); ++v) {
    roles[v] = v < 3 ? Role::Leader : v < 40 ? Role::Committee : Role::Other;
    stakes[v] = rng.uniform_int(1, 500);
  }
  const RoleSnapshot s(std::move(roles), std::move(stakes));
  RoleBasedScheme unfiltered(CostModel{});
  RoleBasedScheme zero_filter(CostModel{}, OptimizerConfig{},
                              std::int64_t{0});
  const ledger::MicroAlgos budget = unfiltered.required_budget(1, s);
  ASSERT_TRUE(unfiltered.last_feasible());
  EXPECT_EQ(zero_filter.required_budget(1, s), budget);
  EXPECT_EQ(zero_filter.last_split().alpha, unfiltered.last_split().alpha);
  EXPECT_EQ(zero_filter.last_split().beta, unfiltered.last_split().beta);
  EXPECT_EQ(zero_filter.distribute(1, s, budget).amounts,
            unfiltered.distribute(1, s, budget).amounts);
}

TEST(RoleBased, PayoutsSumWithinBudgetAcrossBudgets) {
  const RewardSplit split(0.1, 0.2);
  RoleBasedScheme scheme(CostModel{}, split);
  const RoleSnapshot s = snapshot();
  for (const ledger::MicroAlgos b :
       {ledger::MicroAlgos{1}, ledger::MicroAlgos{999},
        ledger::MicroAlgos{12'345'678}, algos(1000)}) {
    const Payouts p = scheme.distribute(1, s, b);
    ledger::MicroAlgos sum = 0;
    for (const auto amount : p.amounts) sum += amount;
    EXPECT_EQ(sum, p.total);
    EXPECT_LE(sum, b);
  }
}

TEST(RewardSplit, Validation) {
  EXPECT_THROW(RewardSplit(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(RewardSplit(0.5, 0.5), std::invalid_argument);
  EXPECT_THROW(RewardSplit(-0.1, 0.2), std::invalid_argument);
  const RewardSplit ok(0.02, 0.03);
  EXPECT_NEAR(ok.gamma(), 0.95, 1e-12);
}

// Every Eq (5) payout goes through pot_share, and the golden digests pin
// its left-to-right product: fraction * budget first, then * stake, then
// / pot_stake. Seeded inputs on which a reordered product differs show the
// bit-for-bit check would catch a reorder.
TEST(PotShare, IsTheLeftToRightProductBitForBit) {
  util::Rng rng(22);
  std::size_t reorder_differs = 0;
  for (int i = 0; i < 1000; ++i) {
    const double fraction = rng.uniform01();
    const double budget = static_cast<double>(rng.uniform_int(1, 1'000'000'000));
    const double stake = static_cast<double>(rng.uniform_int(1, 5'000));
    const double pot_stake =
        stake + static_cast<double>(rng.uniform_int(0, 1'000'000));
    const double expected = ((fraction * budget) * stake) / pot_stake;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  pot_share(fraction, budget, stake, pot_stake)),
              std::bit_cast<std::uint64_t>(expected));
    if (fraction * (budget * stake) / pot_stake != expected) ++reorder_differs;
  }
  EXPECT_GT(reorder_differs, 0u);
}

TEST(PotShare, EmptyPotPaysNothing) {
  EXPECT_EQ(pot_share(0.3, 26e6, 10.0, 0.0), 0.0);
  EXPECT_EQ(pot_share(0.3, 26e6, 0.0, 0.0), 0.0);
  EXPECT_EQ(pot_share(0.3, 26e6, 10.0, 40.0), 0.3 * 26e6 * 10.0 / 40.0);
}

}  // namespace
}  // namespace roleshare::econ

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "econ/role_based.hpp"
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

TEST(RoleBased, SplitDividesPots) {
  RoleBasedScheme scheme(CostModel{});
  const RoleSnapshot s = snapshot();  // S_L=5, S_M=10, S_K=35
  ASSERT_GT(scheme.required_budget(1, s), 0);  // chooses the split
  const RewardSplit& split = scheme.last_split();
  const ledger::MicroAlgos budget = algos(100);
  const Payouts p = scheme.distribute(1, s, budget);

  // Each role pot is its share of the budget, divided by stake in the role.
  const double b = static_cast<double>(budget);
  const auto floor_of = [](double x) {
    return static_cast<ledger::MicroAlgos>(std::floor(x));
  };
  EXPECT_EQ(p.amounts[0], floor_of(split.alpha * b * 2 / 5));
  EXPECT_EQ(p.amounts[1], floor_of(split.alpha * b * 3 / 5));
  EXPECT_EQ(p.amounts[2], floor_of(split.beta * b * 5 / 10));
  EXPECT_EQ(p.amounts[4], floor_of(split.gamma() * b * 10 / 35));
  EXPECT_LE(p.total, budget);
  // All but integer dust is disbursed.
  EXPECT_GT(p.total, budget - 10);
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

TEST(RoleBased, PayoutsSumWithinBudgetAcrossBudgets) {
  RoleBasedScheme scheme(CostModel{});
  const RoleSnapshot s = snapshot();
  ASSERT_GT(scheme.required_budget(1, s), 0);
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

// Cross-module property sweeps (parameterized gtest): invariants that must
// hold across randomized populations, profiles, budgets and defection
// levels — the library-wide contracts DESIGN.md §5 lists.
#include <gtest/gtest.h>

#include "econ/optimizer.hpp"
#include "econ/role_based.hpp"
#include "game/equilibrium.hpp"
#include "sim/round_engine.hpp"
#include "util/distributions.hpp"

namespace roleshare {
namespace {

using consensus::Role;

econ::RoleSnapshot random_snapshot(util::Rng& rng, std::size_t n) {
  std::vector<Role> roles(n, Role::Other);
  std::vector<std::int64_t> stakes =
      util::StakeDistribution::uniform(1, 100).sample_many(rng, n);
  const std::size_t leaders =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const std::size_t committee =
      3 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  const auto picks = rng.sample_without_replacement(n, leaders + committee);
  for (std::size_t i = 0; i < picks.size(); ++i)
    roles[picks[i]] = i < leaders ? Role::Leader : Role::Committee;
  return econ::RoleSnapshot(std::move(roles), std::move(stakes));
}

// ---------------------------------------------------------------------
// Property: for random populations and budgets, role-based payouts are
// non-negative, sum to <= budget, and only stake-holders are paid.
class PayoutConservation : public ::testing::TestWithParam<int> {};

TEST_P(PayoutConservation, HoldsOnRandomPopulations) {
  util::Rng rng(9000 + GetParam());
  const econ::RoleSnapshot snap = random_snapshot(rng, 40);
  const ledger::MicroAlgos budget = rng.uniform_int(0, 50'000'000);

  econ::RoleBasedScheme role_based{econ::CostModel{}};
  role_based.required_budget(1, snap);  // fix the split for distribute()

  const econ::Payouts p = role_based.distribute(1, snap, budget);
  ledger::MicroAlgos sum = 0;
  for (std::size_t v = 0; v < p.amounts.size(); ++v) {
    ASSERT_GE(p.amounts[v], 0);
    if (snap.stake(static_cast<ledger::NodeId>(v)) == 0) {
      ASSERT_EQ(p.amounts[v], 0);
    }
    sum += p.amounts[v];
  }
  ASSERT_EQ(sum, p.total);
  ASSERT_LE(sum, budget);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PayoutConservation, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Property: the closed-form optimizer's output always satisfies its own
// Theorem-3 bounds with strict feasibility, across random populations.
class OptimizerSelfConsistency : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerSelfConsistency, ResultClearsItsOwnBounds) {
  util::Rng rng(9100 + GetParam());
  const econ::RoleSnapshot snap = random_snapshot(rng, 60);
  const econ::RewardOptimizer opt;
  const econ::OptimizerResult r = opt.optimize(snap, econ::CostModel{});
  ASSERT_TRUE(r.feasible);
  const econ::BiBounds check = econ::compute_bi_bounds(
      r.split, econ::BoundInputs::from_snapshot(snap), econ::CostModel{});
  ASSERT_TRUE(check.feasible);
  EXPECT_GE(r.min_bi, check.required());
  EXPECT_LE(r.min_bi, check.required() * 1.001);
  // Every share strictly positive.
  EXPECT_GT(r.split.alpha, 0.0);
  EXPECT_GT(r.split.beta, 0.0);
  EXPECT_GT(r.split.gamma(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerSelfConsistency,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Property: at the optimizer's B_i, the Theorem-3 profile (Y = all
// Others) is a Nash equilibrium that creates the block.
class EquilibriumAtOptimum : public ::testing::TestWithParam<int> {};

TEST_P(EquilibriumAtOptimum, HoldsOnRandomPopulations) {
  util::Rng rng(9200 + GetParam());
  const econ::RoleSnapshot snap = random_snapshot(rng, 50);
  const econ::RewardOptimizer opt;
  const econ::OptimizerResult r = opt.optimize(snap, econ::CostModel{});
  ASSERT_TRUE(r.feasible);

  std::vector<bool> sync_set(snap.node_count(), false);
  for (std::size_t v = 0; v < snap.node_count(); ++v)
    if (snap.role(static_cast<ledger::NodeId>(v)) == Role::Other)
      sync_set[v] = true;

  const game::AlgorandGame g(game::GameConfig{
      snap, econ::CostModel{}, econ::SchemeKind::RoleBased, r.min_bi,
      r.split, sync_set, 0.685});
  EXPECT_TRUE(game::verify_theorem3(g).holds);
  EXPECT_TRUE(g.block_created(game::theorem3_profile(g)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquilibriumAtOptimum,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// Property: one full consensus round maintains its invariants at any
// defection level — outcome fractions partition the network, the chain
// grows by exactly one hash-linked block, and offline nodes never extract
// anything.
class RoundInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RoundInvariants, HoldAcrossDefectionLevels) {
  const double rate = 0.1 * GetParam();
  sim::NetworkConfig config;
  config.node_count = 90;
  config.seed = 9300 + GetParam();
  config.defection_rate = rate * 0.9;  // leave room for faulty nodes
  config.faulty_rate = 0.05;
  sim::Network net(config);
  sim::RoundEngine engine(net, consensus::ConsensusParams::scaled_for(
                                   net.accounts().total_stake()));
  const crypto::Hash256 tip_before = net.chain().tip().hash();
  const sim::RoundResult result = engine.run_round();

  EXPECT_NEAR(result.final_fraction + result.tentative_fraction +
                  result.none_fraction,
              1.0, 1e-9);
  EXPECT_EQ(net.chain().height(), 2u);
  EXPECT_EQ(net.chain().tip().prev_hash(), tip_before);
  ASSERT_TRUE(result.roles.has_value());
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    const auto id = static_cast<ledger::NodeId>(v);
    if (net.behavior(id) == sim::BehaviorType::Faulty) {
      EXPECT_EQ(result.outcomes[v], sim::NodeOutcome::NoBlock);
      EXPECT_EQ(result.roles->stake(id), 0);  // never rewarded
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundInvariants, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Property: equilibrium checks agree with brute force on tiny games —
// the O(1) deviation scanner against freshly recomputed payoffs.
class ScannerAgreesWithBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(ScannerAgreesWithBruteForce, OnRandomProfiles) {
  util::Rng rng(9400 + GetParam());
  const econ::RoleSnapshot snap = random_snapshot(rng, 12);
  const game::GameConfig config{
      snap,
      econ::CostModel{},
      GetParam() % 2 == 0 ? econ::SchemeKind::StakeProportional
                          : econ::SchemeKind::RoleBased,
      1e7 * rng.uniform01(),
      econ::RewardSplit(0.1 + 0.3 * rng.uniform01(),
                        0.1 + 0.3 * rng.uniform01()),
      {},
      0.685};
  const game::AlgorandGame g(config);

  for (int trial = 0; trial < 8; ++trial) {
    game::Profile profile(g.player_count());
    for (auto& s : profile) {
      const auto pick = rng.uniform_int(0, 2);
      s = pick == 0 ? game::Strategy::Cooperate
                    : (pick == 1 ? game::Strategy::Defect
                                 : game::Strategy::Offline);
    }
    const game::DeviationScanner scanner(g, profile);
    for (ledger::NodeId v = 0; v < g.player_count(); ++v) {
      ASSERT_NEAR(scanner.base_payoff(v), g.payoff(profile, v), 1e-9);
      for (const game::Strategy alt :
           {game::Strategy::Cooperate, game::Strategy::Defect,
            game::Strategy::Offline}) {
        game::Profile deviated = profile;
        deviated[v] = alt;
        ASSERT_NEAR(scanner.deviation_payoff(v, alt),
                    g.payoff(deviated, v), 1e-9)
            << "player " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScannerAgreesWithBruteForce,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace roleshare

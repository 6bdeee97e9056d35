#include "game/equilibrium.hpp"

#include <gtest/gtest.h>

#include "econ/optimizer.hpp"

namespace roleshare::game {
namespace {

using consensus::Role;
using econ::CostModel;
using econ::RoleSnapshot;
using econ::SchemeKind;

RoleSnapshot snapshot() {
  return RoleSnapshot({Role::Leader, Role::Leader, Role::Committee,
                       Role::Committee, Role::Committee, Role::Other,
                       Role::Other, Role::Other, Role::Other, Role::Other},
                      {5, 8, 10, 12, 9, 20, 15, 30, 25, 40});
}

GameConfig gal_config(double bi_algos) {
  return GameConfig{snapshot(),
                    CostModel{},
                    SchemeKind::StakeProportional,
                    bi_algos * 1e6,
                    econ::RewardSplit(0.2, 0.3),
                    {},
                    0.685};
}

GameConfig galplus_config(double bi_micro, econ::RewardSplit split,
                          std::vector<bool> sync_set) {
  return GameConfig{snapshot(),         CostModel{}, SchemeKind::RoleBased,
                    bi_micro,           split,       std::move(sync_set),
                    0.685};
}

void expect_scanner_matches_direct_payoffs(const AlgorandGame& game,
                                           const Profile& p) {
  const DeviationScanner scanner(game, p);
  for (ledger::NodeId v = 0; v < game.player_count(); ++v) {
    EXPECT_NEAR(scanner.base_payoff(v), game.payoff(p, v), 1e-9);
    for (const Strategy alt :
         {Strategy::Cooperate, Strategy::Defect, Strategy::Offline}) {
      Profile q = p;
      q[v] = alt;
      EXPECT_NEAR(scanner.deviation_payoff(v, alt), game.payoff(q, v), 1e-9)
          << "player " << v << " alt " << to_string(alt);
    }
  }
}

std::vector<bool> sync_set_for(const RoleSnapshot& snap,
                               std::initializer_list<int> members) {
  std::vector<bool> y(snap.node_count(), false);
  for (const int v : members) y[static_cast<std::size_t>(v)] = true;
  return y;
}

TEST(Equilibrium, ScannerMatchesDirectPayoffs) {
  {
    const AlgorandGame game(gal_config(30));
    Profile p = all_cooperate(game.player_count());
    p[2] = Strategy::Defect;
    expect_scanner_matches_direct_payoffs(game, p);
  }
  // A non-empty Y whose base profile has one member Offline (5) and one
  // Defecting (6): deviations of either remove a sync defector, and the
  // block needs both back.
  const AlgorandGame game(galplus_config(
      10e6, econ::RewardSplit(0.2, 0.3), sync_set_for(snapshot(), {5, 6, 7})));
  Profile p = theorem3_profile(game);
  p[5] = Strategy::Offline;
  p[6] = Strategy::Defect;
  expect_scanner_matches_direct_payoffs(game, p);
  EXPECT_FALSE(game.block_created(p));
  p[5] = Strategy::Cooperate;
  expect_scanner_matches_direct_payoffs(game, p);
  const DeviationScanner scanner(game, p);
  EXPECT_GT(scanner.deviation_payoff(6, Strategy::Cooperate),
            scanner.base_payoff(6));
}

TEST(Equilibrium, Lemma1OfflineDominated) {
  const AlgorandGame game(gal_config(30));
  util::Rng rng(1);
  const TheoremReport report = verify_lemma1(game, rng, 16);
  EXPECT_TRUE(report.holds) << report.detail;
}

TEST(Equilibrium, Theorem1AllDefectIsNash) {
  for (const double bi : {0.0, 5.0, 50.0, 5000.0}) {
    const AlgorandGame game(gal_config(bi));
    const TheoremReport report = verify_theorem1(game);
    EXPECT_TRUE(report.holds) << "bi=" << bi << ": " << report.detail;
  }
}

TEST(Equilibrium, Theorem2AllCooperateIsNotNash) {
  // Regardless of how large the stake-proportional reward is, someone
  // profits by defecting (reward is role-blind, costs are not).
  for (const double bi : {1.0, 20.0, 1000.0}) {
    const AlgorandGame game(gal_config(bi));
    const TheoremReport report = verify_theorem2(game);
    EXPECT_TRUE(report.holds) << "bi=" << bi;
    ASSERT_TRUE(report.witness.has_value());
    EXPECT_EQ(report.witness->from, Strategy::Cooperate);
    EXPECT_EQ(report.witness->to, Strategy::Defect);
    EXPECT_GT(report.witness->gain(), 0.0);
  }
}

TEST(Equilibrium, Theorem2WitnessSavesRoleCostDelta) {
  // The deviating player keeps its reward and saves (c_role - c_so).
  const AlgorandGame game(gal_config(100));
  const TheoremReport report = verify_theorem2(game);
  ASSERT_TRUE(report.holds);
  ASSERT_TRUE(report.witness.has_value());
  const auto role = game.config().snapshot.role(report.witness->player);
  const double saved = CostModel{}.cooperation_cost(role) -
                       CostModel{}.defection_cost();
  EXPECT_NEAR(report.witness->gain(), saved, 1e-6);
}

TEST(Equilibrium, Theorem3ProfileShape) {
  const auto y = sync_set_for(snapshot(), {5, 7});
  const AlgorandGame game(
      galplus_config(10e6, econ::RewardSplit(0.2, 0.3), y));
  const Profile p = theorem3_profile(game);
  EXPECT_EQ(p[0], Strategy::Cooperate);  // leaders
  EXPECT_EQ(p[2], Strategy::Cooperate);  // committee
  EXPECT_EQ(p[5], Strategy::Cooperate);  // Y-other
  EXPECT_EQ(p[6], Strategy::Defect);     // non-Y other
  EXPECT_EQ(p[7], Strategy::Cooperate);  // Y-other
  EXPECT_EQ(p[9], Strategy::Defect);
}

// The pivotal end-to-end check: with B_i above the Theorem-3 bounds the
// profile is a NE; below any single bound it is not, and the violating
// role's player is the witness.
TEST(Equilibrium, Theorem3HoldsAboveBoundsFailsBelow) {
  const RoleSnapshot snap = snapshot();
  const auto y = sync_set_for(snap, {5, 7});
  const econ::RewardSplit split(0.2, 0.3);

  // Bounds computed on the *cooperating* population of the profile: S_K
  // counts the gamma pool of the equilibrium profile — all others plus
  // nobody defecting among leaders/committee. Use snapshot aggregates.
  econ::BoundInputs in = econ::BoundInputs::from_snapshot(snap);
  // In the Theorem-3 profile the non-Y others defect but still draw from
  // the gamma pot, so S_K (stake 130) is unchanged; s*_k is the minimum
  // over Y members only (stakes 20 and 30).
  in.min_stake_other = 20;
  const econ::BiBounds bounds =
      econ::compute_bi_bounds(split, in, CostModel{});
  ASSERT_TRUE(bounds.feasible);

  {
    const AlgorandGame game(
        galplus_config(bounds.required() * 1.01, split, y));
    const TheoremReport report = verify_theorem3(game);
    EXPECT_TRUE(report.holds) << report.detail;
  }
  {
    const AlgorandGame game(
        galplus_config(bounds.required() * 0.5, split, y));
    const TheoremReport report = verify_theorem3(game);
    EXPECT_FALSE(report.holds);
    ASSERT_TRUE(report.witness.has_value());
  }
}

TEST(Equilibrium, Theorem3NonSyncOthersCannotGainByCooperating) {
  const RoleSnapshot snap = snapshot();
  const auto y = sync_set_for(snap, {5, 7});
  const econ::RewardSplit split(0.2, 0.3);
  econ::BoundInputs in = econ::BoundInputs::from_snapshot(snap);
  in.min_stake_other = 20;
  const double bi =
      econ::compute_bi_bounds(split, in, CostModel{}).required() * 1.01;
  const AlgorandGame game(galplus_config(bi, split, y));
  const Profile p = theorem3_profile(game);
  const DeviationScanner scanner(game, p);
  // Node 6 (non-Y other, defecting in the profile): cooperating only adds
  // cost — the block exists either way.
  EXPECT_LT(scanner.deviation_payoff(6, Strategy::Cooperate),
            scanner.base_payoff(6));
}

TEST(Equilibrium, AllDefectRemainsNashInGalPlus) {
  const auto y = sync_set_for(snapshot(), {5});
  const AlgorandGame game(
      galplus_config(50e6, econ::RewardSplit(0.2, 0.3), y));
  EXPECT_FALSE(
      find_profitable_deviation(game, all_defect(game.player_count()))
          .has_value());
}

TEST(Equilibrium, FindDeviationRespectsTolerance) {
  const AlgorandGame game(gal_config(20));
  const Profile p = all_defect(game.player_count());
  // With an astronomically large tolerance nothing is profitable.
  EXPECT_FALSE(find_profitable_deviation(game, p, 1e12).has_value());
}

TEST(Equilibrium, Theorem2RequiresStakeProportional) {
  const auto y = sync_set_for(snapshot(), {});
  const AlgorandGame game(
      galplus_config(10e6, econ::RewardSplit(0.2, 0.3), y));
  EXPECT_THROW(verify_theorem2(game), std::invalid_argument);
}

TEST(Equilibrium, Theorem3RequiresRoleBased) {
  const AlgorandGame game(gal_config(10));
  EXPECT_THROW(verify_theorem3(game), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::game

#include "game/best_response.hpp"

#include <gtest/gtest.h>

namespace roleshare::game {
namespace {

using consensus::Role;
using econ::CostModel;
using econ::RoleSnapshot;
using econ::SchemeKind;

GameConfig gal_config(double bi_algos) {
  return GameConfig{
      RoleSnapshot({Role::Leader, Role::Leader, Role::Committee,
                    Role::Committee, Role::Committee, Role::Other,
                    Role::Other, Role::Other},
                   {5, 8, 10, 12, 9, 20, 15, 30}),
      CostModel{},
      SchemeKind::StakeProportional,
      bi_algos * 1e6,
      econ::RewardSplit(0.2, 0.3),
      {},
      0.685};
}

TEST(BestResponse, AgainstAllDefectIsDefect) {
  const AlgorandGame game(gal_config(20));
  const Profile p = all_defect(game.player_count());
  for (ledger::NodeId v = 0; v < game.player_count(); ++v) {
    EXPECT_EQ(best_response(DeviationScanner(game, p), v), Strategy::Defect);
  }
}

TEST(BestResponse, RoleHoldersDefectFromAllCooperate) {
  // Theorem 2's content as a best-response statement.
  const AlgorandGame game(gal_config(100));
  const Profile p = all_cooperate(game.player_count());
  const DeviationScanner scanner(game, p);
  EXPECT_EQ(best_response(scanner, 0), Strategy::Defect);  // leader
  // Committee member whose defection keeps the quorum:
  EXPECT_EQ(best_response(scanner, 4), Strategy::Defect);  // stake 9
}

TEST(BestResponse, TieBreaksTowardCurrentStrategy) {
  // With bi = 0, a lone Other's payoff is identical for C at no extra cost?
  // No: cooperation costs more. But Defect vs Offline for zero reward both
  // pay -c_so; a defector keeps its current strategy on ties.
  const AlgorandGame game(gal_config(0));
  Profile p = all_defect(game.player_count());
  EXPECT_EQ(best_response(DeviationScanner(game, p), 5), Strategy::Defect);
  p[5] = Strategy::Offline;
  // Offline and Defect both yield -c_so when no block is created; the tie
  // keeps the player offline.
  EXPECT_EQ(best_response(DeviationScanner(game, p), 5), Strategy::Offline);
}

TEST(BestResponseDynamics, CooperationUnravelsFromAllCooperate) {
  // Theorem 2 in motion: starting from All-C, players peel off to Defect.
  // With a large reward the dynamics settle on a *partial* cooperation NE
  // (players pivotal for the block keep cooperating); All-C itself never
  // survives.
  const AlgorandGame game(gal_config(50));
  const DynamicsResult result =
      best_response_dynamics(game, all_cooperate(game.player_count()));
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(find_profitable_deviation(game, result.profile).has_value());
  EXPECT_GT(result.total_moves, 0u);
  EXPECT_NE(result.profile, all_cooperate(game.player_count()));
}

TEST(BestResponseDynamics, ZeroRewardConvergesToAllDefect) {
  // Without rewards cooperation cannot pay: the unique absorbing state is
  // All-D.
  const AlgorandGame game(gal_config(0));
  const DynamicsResult result =
      best_response_dynamics(game, all_cooperate(game.player_count()));
  EXPECT_TRUE(result.converged);
  for (const Strategy s : result.profile) EXPECT_EQ(s, Strategy::Defect);
}

TEST(BestResponseDynamics, AllDefectIsFixpoint) {
  const AlgorandGame game(gal_config(50));
  const DynamicsResult result =
      best_response_dynamics(game, all_defect(game.player_count()));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.total_moves, 0u);
  EXPECT_EQ(result.sweeps, 1u);
}

TEST(BestResponseDynamics, Theorem3ProfileIsFixpointWithSufficientBi) {
  using econ::RewardSplit;
  const RoleSnapshot snap(
      {Role::Leader, Role::Leader, Role::Committee, Role::Committee,
       Role::Committee, Role::Other, Role::Other, Role::Other},
      {5, 8, 10, 12, 9, 20, 15, 30});
  std::vector<bool> y(snap.node_count(), false);
  y[5] = true;
  y[7] = true;
  const RewardSplit split(0.2, 0.3);
  econ::BoundInputs in = econ::BoundInputs::from_snapshot(snap);
  in.min_stake_other = 20;
  const double bi =
      econ::compute_bi_bounds(split, in, CostModel{}).required() * 1.05;
  const AlgorandGame game(GameConfig{snap, CostModel{},
                                     SchemeKind::RoleBased, bi, split, y,
                                     0.685});
  const Profile start = theorem3_profile(game);
  const DynamicsResult result = best_response_dynamics(game, start);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.total_moves, 0u);
  EXPECT_EQ(result.profile, start);
}

TEST(BestResponseDynamics, TerminatesWithinSweepLimit) {
  const AlgorandGame game(gal_config(20));
  Profile start(game.player_count(), Strategy::Offline);
  const DynamicsResult result = best_response_dynamics(game, start, 3);
  EXPECT_LE(result.sweeps, 3u);
}

TEST(BestResponse, RejectsBadPlayer) {
  const AlgorandGame game(gal_config(20));
  const Profile p = all_defect(game.player_count());
  EXPECT_THROW(best_response(DeviationScanner(game, p), 999),
               std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::game

#include "game/game_model.hpp"

#include <gtest/gtest.h>

namespace roleshare::game {
namespace {

using consensus::Role;
using econ::CostModel;
using econ::RoleSnapshot;
using econ::SchemeKind;

// Small population: 2 leaders, 3 committee, 4 others.
GameConfig base_config(SchemeKind scheme, double bi_algos = 10.0) {
  GameConfig config{
      RoleSnapshot({Role::Leader, Role::Leader, Role::Committee,
                    Role::Committee, Role::Committee, Role::Other,
                    Role::Other, Role::Other, Role::Other},
                   {5, 8, 10, 12, 9, 20, 15, 30, 25}),
      CostModel{},
      scheme,
      bi_algos * 1e6,
      econ::RewardSplit(0.2, 0.3),
      {},
      0.685};
  return config;
}

TEST(GameModel, AllCooperateCreatesBlock) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  EXPECT_TRUE(game.block_created(all_cooperate(game.player_count())));
}

TEST(GameModel, AllDefectCreatesNoBlock) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  EXPECT_FALSE(game.block_created(all_defect(game.player_count())));
}

TEST(GameModel, NoLeaderNoBlock) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  Profile p = all_cooperate(game.player_count());
  p[0] = Strategy::Defect;
  p[1] = Strategy::Defect;  // both leaders gone
  EXPECT_FALSE(game.block_created(p));
}

TEST(GameModel, OneLeaderSuffices) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  Profile p = all_cooperate(game.player_count());
  p[0] = Strategy::Defect;  // one leader remains
  EXPECT_TRUE(game.block_created(p));
}

TEST(GameModel, CommitteeQuorumRequired) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  Profile p = all_cooperate(game.player_count());
  // Committee stakes 10, 12, 9 (total 31, threshold 0.685 -> 21.2).
  p[3] = Strategy::Defect;  // 19 remaining < 21.2 -> no block
  EXPECT_FALSE(game.block_created(p));
  p[3] = Strategy::Cooperate;
  p[4] = Strategy::Defect;  // 22 remaining > 21.2 -> block
  EXPECT_TRUE(game.block_created(p));
}

TEST(GameModel, SyncSetMemberDefectionKillsBlock) {
  GameConfig config = base_config(SchemeKind::RoleBased);
  config.sync_set.assign(config.snapshot.node_count(), false);
  config.sync_set[5] = true;  // Other node 5 is in Y
  const AlgorandGame game(config);
  Profile p = all_cooperate(game.player_count());
  EXPECT_TRUE(game.block_created(p));
  p[5] = Strategy::Defect;
  EXPECT_FALSE(game.block_created(p));
  // A non-Y other defecting does not matter.
  p[5] = Strategy::Cooperate;
  p[6] = Strategy::Defect;
  EXPECT_TRUE(game.block_created(p));
}

TEST(GameModel, StakeProportionalPayoffsFollowEq4) {
  // Eq (4): u_j(C) = r_i s_j − c_role with r_i = B_i / S_N.
  const GameConfig config = base_config(SchemeKind::StakeProportional, 13.4);
  const AlgorandGame game(config);
  const Profile p = all_cooperate(game.player_count());
  const double sn = 134.0;  // total stake
  const double ri = 13.4e6 / sn;
  EXPECT_NEAR(game.payoff(p, 0), ri * 5 - 16.0, 1e-6);   // leader
  EXPECT_NEAR(game.payoff(p, 2), ri * 10 - 12.0, 1e-6);  // committee
  EXPECT_NEAR(game.payoff(p, 5), ri * 20 - 6.0, 1e-6);   // other
}

TEST(GameModel, StakeProportionalDefectorKeepsReward) {
  // No punishment: an online defector earns the same r_i s_j but pays only
  // c_so — the root cause of Theorem 2.
  const GameConfig config = base_config(SchemeKind::StakeProportional, 13.4);
  const AlgorandGame game(config);
  Profile p = all_cooperate(game.player_count());
  p[5] = Strategy::Defect;
  const double ri = 13.4e6 / 134.0;
  EXPECT_NEAR(game.payoff(p, 5), ri * 20 - 5.0, 1e-6);
}

TEST(GameModel, NoBlockMeansNoReward) {
  const GameConfig config = base_config(SchemeKind::StakeProportional);
  const AlgorandGame game(config);
  const Profile p = all_defect(game.player_count());
  for (ledger::NodeId v = 0; v < game.player_count(); ++v) {
    EXPECT_DOUBLE_EQ(game.payoff(p, v), -5.0);  // -c_so
  }
}

TEST(GameModel, CooperatingIntoAllDefectLosesRoleCost) {
  const GameConfig config = base_config(SchemeKind::StakeProportional);
  const AlgorandGame game(config);
  Profile p = all_defect(game.player_count());
  p[0] = Strategy::Cooperate;  // lone leader: still no block
  EXPECT_DOUBLE_EQ(game.payoff(p, 0), -16.0);  // -c_L (Theorem 1 case 1)
}

TEST(GameModel, OfflinePaysSortitionAndEarnsNothing) {
  const GameConfig config = base_config(SchemeKind::StakeProportional, 50.0);
  const AlgorandGame game(config);
  Profile p = all_cooperate(game.player_count());
  p[5] = Strategy::Offline;
  EXPECT_DOUBLE_EQ(game.payoff(p, 5), -5.0);
  // The offline node's stake leaves S_N, raising everyone else's rate.
  const double ri = 50.0e6 / (134.0 - 20.0);
  EXPECT_NEAR(game.payoff(p, 6), ri * 15 - 6.0, 1e-6);
}

TEST(GameModel, RoleBasedCooperativePayoffsFollowEq5) {
  // Eq (5): r_L = αB/S_L, r_M = βB/S_M, r_K = γB/S_K.
  GameConfig config = base_config(SchemeKind::RoleBased, 10.0);
  const AlgorandGame game(config);
  const Profile p = all_cooperate(game.player_count());
  const double b = 10.0e6;
  const double sl = 13, sm = 31, sk = 90;
  EXPECT_NEAR(game.payoff(p, 0), 0.2 * b * 5 / sl - 16.0, 1e-6);
  EXPECT_NEAR(game.payoff(p, 2), 0.3 * b * 10 / sm - 12.0, 1e-6);
  EXPECT_NEAR(game.payoff(p, 5), 0.5 * b * 20 / sk - 6.0, 1e-6);
}

TEST(GameModel, RoleBasedDefectingLeaderPaidFromGammaPot) {
  // Lemma-2 deviation payoff: γB s/(S_K + s_l) − c_so.
  GameConfig config = base_config(SchemeKind::RoleBased, 10.0);
  const AlgorandGame game(config);
  Profile p = all_cooperate(game.player_count());
  p[0] = Strategy::Defect;  // leader 0 (stake 5) hides among the others
  const double b = 10.0e6;
  EXPECT_NEAR(game.payoff(p, 0), 0.5 * b * 5 / (90.0 + 5.0) - 5.0, 1e-6);
  // The cooperating leader now owns the whole α pot.
  EXPECT_NEAR(game.payoff(p, 1), 0.2 * b * 8 / 8.0 - 16.0, 1e-6);
}

TEST(GameModel, PayoffsVectorMatchesScalar) {
  const AlgorandGame game(base_config(SchemeKind::RoleBased));
  Profile p = all_cooperate(game.player_count());
  p[3] = Strategy::Defect;
  const auto all = game.payoffs(p);
  ASSERT_EQ(all.size(), game.player_count());
  for (ledger::NodeId v = 0; v < game.player_count(); ++v) {
    EXPECT_DOUBLE_EQ(all[v], game.payoff(p, v));
  }
}

TEST(GameModel, RejectsBadConfig) {
  GameConfig config = base_config(SchemeKind::StakeProportional);
  config.bi = -1;
  EXPECT_THROW(AlgorandGame{config}, std::invalid_argument);
  config = base_config(SchemeKind::StakeProportional);
  config.committee_threshold = 0.4;
  EXPECT_THROW(AlgorandGame{config}, std::invalid_argument);
  config = base_config(SchemeKind::StakeProportional);
  config.sync_set = {true};  // wrong size
  EXPECT_THROW(AlgorandGame{config}, std::invalid_argument);
}

// The Theorem-3 sync set Y of the strategic loop and ne_verification:
// Others with stake, and nobody else.
TEST(GameModel, OnlineOthersKeepsOnlyOthersWithStake) {
  const RoleSnapshot snap({Role::Leader, Role::Committee, Role::Other,
                           Role::Other, Role::Leader, Role::Other,
                           Role::Committee},
                          {5, 3, 0, 7, 0, 2, 0});
  EXPECT_EQ(online_others(snap),
            (std::vector<bool>{false, false, false, true, false, true,
                               false}));
  GameConfig config = base_config(SchemeKind::RoleBased);
  config.sync_set = online_others(config.snapshot);
  const AlgorandGame game(config);
  for (ledger::NodeId v = 0; v < game.player_count(); ++v)
    EXPECT_EQ(game.in_sync_set(v), config.snapshot.role(v) == Role::Other)
        << v;
}

TEST(GameModel, ProfileSizeChecked) {
  const AlgorandGame game(base_config(SchemeKind::StakeProportional));
  EXPECT_THROW(game.payoff(Profile(2, Strategy::Cooperate), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::game

// End-to-end integration: consensus rounds feeding reward schemes out of
// the Foundation pool, credited to accounts; plus game-theoretic
// verification on snapshots produced by the live simulator.
#include <gtest/gtest.h>

#include "econ/foundation_schedule.hpp"
#include "econ/reward_pool.hpp"
#include "econ/role_based.hpp"
#include "game/equilibrium.hpp"
#include "sim/round_engine.hpp"

namespace roleshare {
namespace {

sim::NetworkConfig net_config(double defection, std::uint64_t seed) {
  sim::NetworkConfig config;
  config.node_count = 100;
  config.seed = seed;
  config.defection_rate = defection;
  return config;
}

TEST(Integration, RoundsPlusRoleBasedRewardsConserveMoney) {
  sim::Network net(net_config(0.0, 101));
  sim::RoundEngine engine(
      net, consensus::ConsensusParams::scaled_for(net.accounts().total_stake()));
  econ::FoundationPool pool;
  econ::RoleBasedScheme scheme((econ::CostModel()));

  ledger::MicroAlgos credited_total = 0;
  for (int r = 1; r <= 5; ++r) {
    const sim::RoundResult result = engine.run_round();
    ASSERT_TRUE(result.roles.has_value());
    // Fig-2 flow: inject R_i, withdraw the minimal B_i, distribute it
    // across the role pots.
    pool.inject(econ::FoundationSchedule::reward_for_round(result.round));
    const auto bi =
        pool.withdraw(scheme.required_budget(result.round, *result.roles));
    const econ::Payouts payouts =
        scheme.distribute(result.round, *result.roles, bi);
    ledger::MicroAlgos round_total = 0;
    for (std::size_t v = 0; v < payouts.amounts.size(); ++v) {
      net.accounts().credit(static_cast<ledger::NodeId>(v),
                            payouts.amounts[v]);
      round_total += payouts.amounts[v];
    }
    EXPECT_EQ(round_total, payouts.total);
    EXPECT_LE(round_total, bi);
    credited_total += round_total;
    // Dust from integer division stays in the pool.
    EXPECT_EQ(pool.emitted(), pool.balance() + pool.disbursed());
  }
  EXPECT_GT(credited_total, 0);
  EXPECT_LE(credited_total, pool.disbursed());
  EXPECT_LE(pool.disbursed(), pool.emitted());
}

TEST(Integration, RoleBasedSchemeDistributesMuchLessThanFoundation) {
  sim::Network net(net_config(0.0, 202));
  sim::RoundEngine engine(
      net, consensus::ConsensusParams::scaled_for(net.accounts().total_stake()));
  econ::RoleBasedScheme ours((econ::CostModel()));

  ledger::MicroAlgos ours_total = 0, foundation_total = 0;
  for (int r = 1; r <= 5; ++r) {
    const sim::RoundResult result = engine.run_round();
    ASSERT_TRUE(result.roles.has_value());
    ours_total += ours.required_budget(result.round, *result.roles);
    foundation_total +=
        econ::FoundationSchedule::reward_for_round(result.round);
  }
  EXPECT_GT(ours_total, 0);
  // The Fig-7 headline: our adaptive reward is far below the 20-Algo
  // schedule at this (small) network scale.
  EXPECT_LT(ours_total, foundation_total / 10);
}

TEST(Integration, ObservedSnapshotSupportsTheorem3Equilibrium) {
  // Take a real round's observed roles, compute the minimal B_i via the
  // adaptive scheme, build the game, and verify the Theorem-3 profile is a
  // Nash equilibrium under that exact B_i.
  sim::Network net(net_config(0.0, 303));
  sim::RoundEngine engine(
      net, consensus::ConsensusParams::scaled_for(net.accounts().total_stake()));
  const sim::RoundResult result = engine.run_round();
  ASSERT_TRUE(result.roles.has_value());
  const econ::RoleSnapshot& snap = *result.roles;
  ASSERT_GT(snap.count(consensus::Role::Leader), 0u);
  ASSERT_GT(snap.count(consensus::Role::Committee), 0u);

  econ::RoleBasedScheme scheme((econ::CostModel()));
  const ledger::MicroAlgos bi = scheme.required_budget(1, snap);
  ASSERT_TRUE(scheme.last_feasible());
  ASSERT_GT(bi, 0);

  // Strong-synchrony set: every Other node (conservative worst case for
  // the bound — s*_k is the global Other minimum, which the optimizer
  // used too).
  std::vector<bool> sync_set(snap.node_count(), false);
  for (std::size_t v = 0; v < snap.node_count(); ++v)
    if (snap.role(static_cast<ledger::NodeId>(v)) == consensus::Role::Other &&
        snap.stake(static_cast<ledger::NodeId>(v)) > 0)
      sync_set[v] = true;

  const game::AlgorandGame g(game::GameConfig{
      snap, econ::CostModel{}, econ::SchemeKind::RoleBased,
      static_cast<double>(bi), scheme.last_split(), sync_set, 0.685});
  const game::TheoremReport report = game::verify_theorem3(g);
  EXPECT_TRUE(report.holds) << report.detail;
}

TEST(Integration, DefectionReducesDistributedRewards) {
  // Under the role-based scheme, fewer observed roles (hidden defectors)
  // change the snapshot; the scheme still produces a feasible reward when
  // at least one leader and committee member cooperated.
  sim::Network healthy(net_config(0.0, 404));
  sim::Network degraded(net_config(0.3, 404));
  sim::RoundEngine e1(healthy, consensus::ConsensusParams::scaled_for(
                                   healthy.accounts().total_stake()));
  sim::RoundEngine e2(degraded, consensus::ConsensusParams::scaled_for(
                                    degraded.accounts().total_stake()));
  const sim::RoundResult r1 = e1.run_round();
  const sim::RoundResult r2 = e2.run_round();
  ASSERT_TRUE(r1.roles.has_value());
  ASSERT_TRUE(r2.roles.has_value());
  EXPECT_GE(r1.roles->count(consensus::Role::Committee),
            r2.roles->count(consensus::Role::Committee));
}

TEST(Integration, FullPipelineDeterminism) {
  auto run_once = [](std::uint64_t seed) {
    sim::Network net(net_config(0.1, seed));
    sim::RoundEngine engine(net, consensus::ConsensusParams::scaled_for(
                                     net.accounts().total_stake()));
    econ::RoleBasedScheme scheme((econ::CostModel()));
    ledger::MicroAlgos total = 0;
    for (int r = 1; r <= 3; ++r) {
      const sim::RoundResult result = engine.run_round();
      if (result.roles)
        total += scheme.required_budget(result.round, *result.roles);
    }
    return total;
  };
  EXPECT_EQ(run_once(777), run_once(777));
  EXPECT_NE(run_once(777), run_once(778));
}

}  // namespace
}  // namespace roleshare

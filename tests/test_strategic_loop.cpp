#include "sim/strategic_loop.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace roleshare::sim {
namespace {

using econ::SchemeKind;

StrategicLoopConfig base_config(SchemeKind scheme, std::uint64_t seed) {
  StrategicLoopConfig config;
  config.network.node_count = 100;
  config.network.seed = seed;
  config.rounds = 10;
  config.scheme = scheme;
  return config;
}

TEST(StrategicLoop, FoundationSchemeUnravelsCooperation) {
  const StrategicLoopResult result = run_strategic_loop(
      base_config(SchemeKind::StakeProportional, 71), nullptr);
  ASSERT_EQ(result.rounds.size(), 10u);
  // Round 1 starts fully cooperative...
  EXPECT_DOUBLE_EQ(result.rounds.front().cooperation_fraction, 1.0);
  // ...then Theorem 2's deviations kick in: most of the network defects.
  EXPECT_LT(result.final_cooperation, 0.5);
  // Cooperation is non-increasing-ish: final well below initial.
  EXPECT_LT(result.rounds.back().cooperation_fraction,
            result.rounds.front().cooperation_fraction);
}

TEST(StrategicLoop, RoleBasedSchemeSustainsCooperation) {
  const StrategicLoopResult result = run_strategic_loop(
      base_config(SchemeKind::RoleBased, 71), nullptr);
  // Theorem 3: cooperation is self-enforcing for everyone who matters;
  // the loop stays (almost) fully cooperative throughout.
  EXPECT_GT(result.final_cooperation, 0.9);
  for (const StrategicRoundStats& r : result.rounds) {
    EXPECT_GT(r.cooperation_fraction, 0.9) << "round " << r.round;
  }
}

TEST(StrategicLoop, RoleBasedKeepsConsensusAlive) {
  const StrategicLoopResult role_based = run_strategic_loop(
      base_config(SchemeKind::RoleBased, 72), nullptr);
  const StrategicLoopResult foundation = run_strategic_loop(
      base_config(SchemeKind::StakeProportional, 72), nullptr);
  // Average final-consensus share over the last half of the horizon.
  auto tail_final = [](const StrategicLoopResult& r) {
    double sum = 0;
    const std::size_t half = r.rounds.size() / 2;
    for (std::size_t i = half; i < r.rounds.size(); ++i)
      sum += r.rounds[i].final_fraction;
    return sum / static_cast<double>(r.rounds.size() - half);
  };
  EXPECT_GT(tail_final(role_based), tail_final(foundation));
  EXPECT_GT(tail_final(role_based), 0.8);
}

TEST(StrategicLoop, RoleBasedPaysLessThanFoundation) {
  const StrategicLoopResult role_based = run_strategic_loop(
      base_config(SchemeKind::RoleBased, 73), nullptr);
  // The role-based loop keeps producing blocks AND pays less than the
  // Foundation schedule would (20 Algos per successful round).
  double successful_rounds = 0;
  for (const auto& r : role_based.rounds)
    if (r.non_empty_block) successful_rounds += 1;
  ASSERT_GT(successful_rounds, 0);
  EXPECT_LT(role_based.total_reward_algos, 20.0 * successful_rounds / 10.0);
}

TEST(StrategicLoop, AllDefectStartCannotRecover) {
  // Theorem 1: All-D is absorbing under either scheme — cooperation never
  // restarts once everyone defects.
  for (const SchemeKind scheme :
       {SchemeKind::StakeProportional,
        SchemeKind::RoleBased}) {
    StrategicLoopConfig config = base_config(scheme, 74);
    config.initial = game::Strategy::Defect;
    config.rounds = 5;
    const StrategicLoopResult result = run_strategic_loop(config, nullptr);
    EXPECT_DOUBLE_EQ(result.final_cooperation, 0.0);
    for (const auto& r : result.rounds) EXPECT_FALSE(r.non_empty_block);
  }
}

TEST(StrategicLoop, ParallelBestResponseSweepMatchesSerial) {
  // The per-node best-response sweep reads only the frozen previous
  // profile, so a pool must not change any per-round statistic.
  const StrategicLoopConfig config =
      base_config(SchemeKind::RoleBased, 77);
  util::ThreadPool pool(4);
  const StrategicLoopResult a = run_strategic_loop(config, nullptr);
  const StrategicLoopResult b = run_strategic_loop(config, &pool);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].cooperation_fraction,
              b.rounds[i].cooperation_fraction);
    EXPECT_EQ(a.rounds[i].final_fraction, b.rounds[i].final_fraction);
    EXPECT_EQ(a.rounds[i].bi_algos, b.rounds[i].bi_algos);
  }
  EXPECT_EQ(a.final_cooperation, b.final_cooperation);
  EXPECT_EQ(a.total_reward_algos, b.total_reward_algos);
}

TEST(StrategicLoop, Deterministic) {
  const auto a = run_strategic_loop(
      base_config(SchemeKind::RoleBased, 75), nullptr);
  const auto b = run_strategic_loop(
      base_config(SchemeKind::RoleBased, 75), nullptr);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].cooperation_fraction,
                     b.rounds[i].cooperation_fraction);
    EXPECT_DOUBLE_EQ(a.rounds[i].bi_algos, b.rounds[i].bi_algos);
  }
}

TEST(StrategicLoop, RejectsZeroRounds) {
  StrategicLoopConfig config =
      base_config(SchemeKind::RoleBased, 76);
  config.rounds = 0;
  EXPECT_THROW(run_strategic_loop(config, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::sim

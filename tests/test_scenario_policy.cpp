// Scenario-policy layer: adaptive / stake-correlated defection and churn.
// Covers behaviour re-labelling, stake-percentile monotonicity, churn
// determinism + floor, live-node indexing in the round engine, and
// bit-identity of policy-driven experiments across outer thread counts
// (inner thread counts are covered in test_inner_parallel.cpp).
#include "sim/scenario_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/defection_experiment.hpp"
#include "sim/round_engine.hpp"
#include "sim/strategic_loop.hpp"

namespace roleshare::sim {
namespace {

using game::Strategy;

NetworkConfig small_network(std::uint64_t seed) {
  NetworkConfig config;
  config.node_count = 80;
  config.seed = seed;
  return config;
}

TEST(ScenarioPolicy, AdaptiveConvertsTheScriptedCohort) {
  NetworkConfig net_config = small_network(3);
  net_config.defection_rate = 0.2;
  Network net(net_config);
  std::size_t scripted = 0;
  for (std::size_t v = 0; v < net.node_count(); ++v)
    if (net.behavior(v) == BehaviorType::ScriptedDefect) ++scripted;
  ASSERT_GT(scripted, 0u);

  ScenarioPolicyConfig config;
  config.kind = PolicyKind::AdaptiveDefect;
  ScenarioPolicy policy(config, net,
                        consensus::ConsensusParams{}.step_threshold);
  std::size_t adaptive = 0;
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    EXPECT_NE(net.behavior(v), BehaviorType::ScriptedDefect);
    if (net.behavior(v) == BehaviorType::AdaptiveDefect) ++adaptive;
  }
  EXPECT_EQ(adaptive, scripted);

  // Before any observed round, adaptive candidates cooperate.
  policy.begin_round(0, nullptr, util::InnerExecutor{});
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    if (net.behavior(v) == BehaviorType::AdaptiveDefect)
      EXPECT_EQ(net.strategies()[v], Strategy::Cooperate);
  }
}

TEST(ScenarioPolicy, StakeCorrelatedDefectionFallsWithStake) {
  Network net(small_network(5));
  ScenarioPolicyConfig config;
  config.kind = PolicyKind::StakeCorrelatedDefect;
  config.defect_at_bottom = 0.8;
  config.defect_at_top = 0.0;
  ScenarioPolicy policy(config, net,
                        consensus::ConsensusParams{}.step_threshold);

  // Identify the bottom and top stake quartiles.
  std::vector<std::size_t> order(net.node_count());
  for (std::size_t v = 0; v < order.size(); ++v) order[v] = v;
  const auto stakes = net.accounts().stakes();
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return stakes[a] < stakes[b];
                   });

  // Count defections per node over many policy rounds.
  std::vector<std::size_t> defections(net.node_count(), 0);
  for (std::size_t r = 0; r < 50; ++r) {
    policy.begin_round(r, nullptr, util::InnerExecutor{});
    for (std::size_t v = 0; v < net.node_count(); ++v)
      if (net.strategies()[v] == Strategy::Defect) ++defections[v];
  }
  const std::size_t quartile = net.node_count() / 4;
  std::size_t bottom = 0, top = 0;
  for (std::size_t i = 0; i < quartile; ++i) {
    bottom += defections[order[i]];
    top += defections[order[order.size() - 1 - i]];
  }
  // Bottom-stake nodes defect with p ~0.7+, top-stake with p ~0.1-.
  EXPECT_GT(bottom, 2 * top);
}

TEST(ScenarioPolicy, ChurnIsDeterministicAndRespectsTheFloor) {
  ChurnSchedule schedule;
  schedule.leave_probability = 0.3;
  schedule.join_probability = 0.1;
  schedule.min_live = 60;

  auto run_masks = [&]() {
    Network net(small_network(11));
    const util::Rng root = scenario_policy_root(net.config().seed);
    std::vector<std::vector<std::uint8_t>> masks;
    for (std::size_t r = 0; r < 10; ++r) {
      const std::size_t live = apply_churn(net, schedule, root, r);
      EXPECT_GE(live, schedule.min_live);
      EXPECT_EQ(live, net.live_count());
      masks.push_back(net.live_mask());
    }
    return masks;
  };
  const auto a = run_masks();
  const auto b = run_masks();
  EXPECT_EQ(a, b);  // same seed -> same join/leave pattern, always

  // The live set actually changes round over round.
  bool varied = false;
  for (std::size_t r = 1; r < a.size(); ++r)
    varied = varied || a[r] != a[r - 1];
  EXPECT_TRUE(varied);
}

TEST(ScenarioPolicy, ChurnFloorValidation) {
  Network net(small_network(13));
  ChurnSchedule schedule;
  schedule.leave_probability = 0.5;
  schedule.min_live = 0;
  const util::Rng root = scenario_policy_root(net.config().seed);
  EXPECT_THROW(apply_churn(net, schedule, root, 0), std::invalid_argument);
}

TEST(RoundEngine, DepartedNodesAreExcludedFromTheRound) {
  NetworkConfig config = small_network(17);
  Network net(config);
  // Remove a third of the population before the round.
  const std::size_t n = net.node_count();
  for (std::size_t v = 0; v < n; v += 3) net.set_live(v, false);
  const std::size_t live = net.live_count();
  ASSERT_LT(live, n);

  RoundEngine engine(net,
                     consensus::ConsensusParams::scaled_for(
                         net.accounts().total_stake()),
                     nullptr);
  const RoundResult result = engine.run_round();
  EXPECT_EQ(result.live_count, live);
  // Departed nodes never extract a block, earn a role, or carry reward
  // stake.
  for (std::size_t v = 0; v < n; v += 3) {
    EXPECT_EQ(result.outcomes[v], NodeOutcome::NoBlock);
    EXPECT_EQ(result.roles->role(v), consensus::Role::Other);
    EXPECT_EQ(result.roles->stake(v), 0);
    EXPECT_EQ(result.roles_true->role(v), consensus::Role::Other);
  }
  // Fractions are normalized over the live population.
  std::size_t finals = 0;
  for (const NodeOutcome o : result.outcomes)
    if (o == NodeOutcome::Final) ++finals;
  EXPECT_DOUBLE_EQ(result.final_fraction,
                   static_cast<double>(finals) / static_cast<double>(live));
}

DefectionExperimentConfig policy_experiment(PolicyKind kind, bool churn,
                                            std::size_t threads) {
  DefectionExperimentConfig config;
  config.network = small_network(29);
  config.runs = 4;
  config.rounds = 5;
  config.threads = threads;
  config.policy.kind = kind;
  switch (kind) {
    case PolicyKind::Scripted:
    case PolicyKind::AdaptiveDefect:
      config.network.defection_rate = 0.15;
      break;
    case PolicyKind::StakeCorrelatedDefect:
      config.policy.defect_at_bottom = 0.4;
      config.policy.defect_at_top = 0.0;
      break;
  }
  if (churn) {
    config.policy.churn.leave_probability = 0.1;
    config.policy.churn.join_probability = 0.2;
    config.policy.churn.min_live = 20;
  }
  return config;
}

void expect_series_equal(const DefectionSeries& a, const DefectionSeries& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].final_pct, b.rounds[r].final_pct) << "round " << r;
    EXPECT_EQ(a.rounds[r].tentative_pct, b.rounds[r].tentative_pct);
    EXPECT_EQ(a.rounds[r].none_pct, b.rounds[r].none_pct);
  }
  EXPECT_EQ(a.live_series, b.live_series);
  EXPECT_EQ(a.cooperation_series, b.cooperation_series);
  EXPECT_EQ(a.runs_with_progress, b.runs_with_progress);
  EXPECT_EQ(a.min_live, b.min_live);
  EXPECT_EQ(a.max_live, b.max_live);
}

TEST(ScenarioPolicy, PoliciesBitIdenticalAcrossOuterThreads) {
  for (const PolicyKind kind :
       {PolicyKind::AdaptiveDefect, PolicyKind::StakeCorrelatedDefect}) {
    for (const bool churn : {false, true}) {
      const DefectionSeries serial =
          run_defection_experiment(policy_experiment(kind, churn, 1));
      const DefectionSeries parallel =
          run_defection_experiment(policy_experiment(kind, churn, 4));
      expect_series_equal(serial, parallel);
    }
  }
}

TEST(ScenarioPolicy, ChurnProducesRoundVaryingLiveCounts) {
  const DefectionSeries series = run_defection_experiment(
      policy_experiment(PolicyKind::Scripted, /*churn=*/true, 1));
  EXPECT_LT(series.min_live, series.max_live);
  EXPECT_GE(series.min_live, 20u);  // the floor
  // Without churn the live series is flat at node_count.
  const DefectionSeries flat = run_defection_experiment(
      policy_experiment(PolicyKind::Scripted, /*churn=*/false, 1));
  EXPECT_EQ(flat.min_live, flat.max_live);
  EXPECT_EQ(flat.max_live, 80u);
}

TEST(ScenarioPolicy, DisabledPolicyMatchesLegacyExperiment) {
  // A default (scripted, churn-free) policy must leave the experiment
  // bit-identical to the pre-policy code path: same seeds, same streams.
  DefectionExperimentConfig config = policy_experiment(
      PolicyKind::Scripted, /*churn=*/false, 1);
  ASSERT_FALSE(config.policy.enabled());
  const DefectionSeries a = run_defection_experiment(config);
  const DefectionSeries b = run_defection_experiment(config);
  expect_series_equal(a, b);
}

TEST(StrategicLoop, ChurnKeepsTheLoopDeterministic) {
  StrategicLoopConfig config;
  config.network = small_network(31);
  config.network.node_count = 60;
  config.rounds = 4;
  // Foundation scheme: its Table-III budget stays well-defined however
  // churn reshapes the live role sets (the role-based optimizer requires
  // a non-empty Others set, which a shrunken committee-heavy population
  // cannot guarantee).
  config.scheme = econ::SchemeKind::StakeProportional;
  config.churn.leave_probability = 0.1;
  config.churn.join_probability = 0.2;
  config.churn.min_live = 30;

  const StrategicLoopResult a = run_strategic_loop(config, nullptr);
  const StrategicLoopResult b = run_strategic_loop(config, nullptr);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  bool live_varied = false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].cooperation_fraction,
              b.rounds[r].cooperation_fraction);
    EXPECT_EQ(a.rounds[r].final_fraction, b.rounds[r].final_fraction);
    EXPECT_EQ(a.rounds[r].live, b.rounds[r].live);
    EXPECT_GE(a.rounds[r].live, 30u);
    live_varied = live_varied || a.rounds[r].live != 60u;
  }
  EXPECT_TRUE(live_varied);
  EXPECT_EQ(a.final_cooperation, b.final_cooperation);
}

TEST(Behavior, PolicyDrivenTypesHaveExhaustiveNames) {
  EXPECT_EQ(to_string(BehaviorType::AdaptiveDefect), "adaptive-defect");
  EXPECT_EQ(to_string(BehaviorType::StakeCorrelatedDefect),
            "stake-correlated-defect");
  EXPECT_EQ(to_string(PolicyKind::Scripted), "scripted");
  EXPECT_EQ(to_string(PolicyKind::AdaptiveDefect), "adaptive");
  EXPECT_EQ(to_string(PolicyKind::StakeCorrelatedDefect),
            "stake-correlated");
  // Out-of-range values fail loudly instead of labelling bench JSON "?".
  EXPECT_THROW(to_string(static_cast<BehaviorType>(250)),
               std::invalid_argument);
  EXPECT_THROW(to_string(static_cast<PolicyKind>(250)),
               std::invalid_argument);
}

TEST(Behavior, StakeCorrelatedUsesTheContextProbability) {
  util::Rng rng(7);
  EXPECT_EQ(choose_strategy(BehaviorType::StakeCorrelatedDefect, 1.0, rng),
            Strategy::Defect);
  EXPECT_EQ(choose_strategy(BehaviorType::StakeCorrelatedDefect, 0.0, rng),
            Strategy::Cooperate);
  EXPECT_THROW(
      choose_strategy(BehaviorType::StakeCorrelatedDefect, 1.5, rng),
      std::invalid_argument);
  // An adaptive defector cooperates until the policy has a round for it
  // to best-respond to.
  EXPECT_EQ(choose_strategy(BehaviorType::AdaptiveDefect, 1.0, rng),
            Strategy::Cooperate);
}

}  // namespace
}  // namespace roleshare::sim
